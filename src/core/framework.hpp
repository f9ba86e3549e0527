// HybridRunner — the end-to-end orchestration of the paper's Fig. 5:
// primary resources run MiniS3D plus the in-situ analysis stages; the
// secondary resources (Dart + StagingService) schedule and execute the
// in-transit stages asynchronously while the simulation proceeds.
//
// Per timestep:
//   1. every simulation rank advances the solver (collective);
//   2. each scheduled analysis whose frequency divides the step runs its
//      in-situ stage on every rank (publishing intermediate blocks);
//   3. rank 0 submits the corresponding in-transit task (data-ready), and
//      the staging buckets pull and process it while the simulation moves
//      on — successive steps land on different buckets (temporal
//      multiplexing).
//
// A runner never owns its staging deployment: every campaign is a tenant of
// CampaignService, which builds the runner and lends it SharedStagingEnv.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "core/analysis.hpp"
#include "core/metrics.hpp"
#include "sim/s3d.hpp"
#include "staging/scheduler.hpp"
#include "transport/dart.hpp"

namespace hia {

struct RunConfig {
  S3DParams sim{};
  /// Ignored: the staging deployment belongs to CampaignService::Options.
  /// Kept only so existing callers that still assign them keep compiling.
  int staging_servers = 2;
  int staging_buckets = 4;
  int staging_replicas = 1;
  long steps = 5;
  /// Data-reduction codec applied to every block published to staging:
  /// a make_codec() spec ("raw", "rle", "delta", "quantize:1e-6").
  /// Empty = publish raw (no frame, no codec overhead).
  std::string staging_codec;
  /// Steering policy for in-transit submissions ("in-transit", "adaptive",
  /// "in-situ", "shed"; empty = in-transit, the PR-4 behavior).
  std::string steer;
};

/// The staging environment a campaign runs on: the campaign service owns
/// one Dart/StagingService/OverloadControl set and hands each tenant's
/// HybridRunner this view of it. The runner namespaces its handlers and
/// published variables under `ns_prefix` and charges all admission/queue/
/// store accounting to `tenant`. All pointers are unowned and must outlive
/// the runner.
struct SharedStagingEnv {
  Dart* dart = nullptr;
  StagingService* staging = nullptr;
  OverloadControl* overload = nullptr;  // null = admission off
  int tenant = 0;
  std::string ns_prefix;  // e.g. "t3/"
};

class HybridRunner {
 public:
  /// One tenant's campaign on the service's staging environment. The
  /// steering policy consults the *shared* pressure. run() drains only
  /// this tenant's tasks and reports only its records (with the namespace
  /// prefix stripped back off).
  HybridRunner(RunConfig config, const SharedStagingEnv& env);

  HybridRunner(const HybridRunner&) = delete;
  HybridRunner& operator=(const HybridRunner&) = delete;

  /// Schedules `analysis` every `frequency` steps (1 = every step).
  void add_analysis(std::shared_ptr<HybridAnalysis> analysis,
                    int frequency = 1);

  /// Runs the full simulation + analysis campaign and returns the report:
  /// the tenant's records plus the reaction side of the resilience ledger
  /// (the service reports the injection side). May be called once.
  RunReport run();

  [[nodiscard]] SteeringBoard& steering() { return steering_; }

 private:
  struct Scheduled {
    std::shared_ptr<HybridAnalysis> analysis;
    int frequency = 1;
  };

  RunConfig config_;
  // Borrowed from the service (see SharedStagingEnv).
  OverloadControl* overload_ = nullptr;  // null = overload off
  Dart* dart_ = nullptr;
  StagingService* staging_ = nullptr;
  SteerPolicy steer_ = SteerPolicy::kInTransit;
  int tenant_ = 0;
  std::string ns_prefix_;
  std::shared_ptr<const Codec> codec_;  // null = publish raw
  SteeringBoard steering_;
  std::vector<Scheduled> analyses_;
  bool ran_ = false;
};

}  // namespace hia
