// Gemini-like interconnect cost model.
//
// The paper's DART implementation targets the Cray Gemini network (uGNI),
// which exposes two user-space transfer mechanisms:
//   * FMA / SMSG ("Short Message") — OS-bypass, lowest latency, best for
//     small payloads;
//   * BTE ("Block Transfer Engine") RDMA Get/Put — higher startup cost,
//     higher sustained bandwidth, overlaps with computation, best for bulk.
//
// We reproduce DART's size-dependent path selection with an explicit
// latency/bandwidth model per path, plus a simple congestion term so that
// many concurrent flows through the staging area share link bandwidth.
// Parameters default to published Gemini characteristics (~1.4 us FMA
// latency, ~6 GB/s per-direction link bandwidth).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hia {

enum class TransferPath { kSmsg, kBte };

const char* to_string(TransferPath path);

struct NetworkParams {
  // SMSG/FMA path.
  double smsg_latency_s = 1.4e-6;        // one-way short-message latency
  double smsg_bandwidth_Bps = 1.0e9;     // effective FMA streaming bandwidth
  size_t smsg_max_bytes = 4096;          // DART's SMSG cutoff

  // BTE RDMA path.
  double bte_latency_s = 12.0e-6;        // descriptor setup + completion event
  double bte_bandwidth_Bps = 6.0e9;      // per-direction link bandwidth

  // Congestion: each concurrent flow on the staging link divides bandwidth.
  double congestion_exponent = 1.0;
};

/// Models transfer costs and tracks concurrent flows. Thread-safe.
class NetworkModel {
 public:
  explicit NetworkModel(NetworkParams params = {}) : params_(params) {}

  /// DART's path selection: SMSG for payloads up to smsg_max_bytes,
  /// BTE RDMA beyond.
  [[nodiscard]] TransferPath select_path(size_t bytes) const;

  /// Modeled seconds to move `bytes` given `concurrent_flows` flows sharing
  /// the link (including this one; pass 1 for an idle network).
  [[nodiscard]] double transfer_seconds(size_t bytes,
                                        int concurrent_flows = 1) const;

  /// RAII flow registration used by Dart to account for congestion.
  class FlowGuard {
   public:
    explicit FlowGuard(NetworkModel& model) : model_(&model) {
      model_->active_flows_.fetch_add(1, std::memory_order_relaxed);
    }
    ~FlowGuard() {
      model_->active_flows_.fetch_sub(1, std::memory_order_relaxed);
    }
    FlowGuard(const FlowGuard&) = delete;
    FlowGuard& operator=(const FlowGuard&) = delete;

   private:
    NetworkModel* model_;
  };

  [[nodiscard]] int active_flows() const {
    return active_flows_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const NetworkParams& params() const { return params_; }

 private:
  NetworkParams params_;
  std::atomic<int> active_flows_{0};
};

}  // namespace hia
