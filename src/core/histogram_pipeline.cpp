#include "core/histogram_pipeline.hpp"

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

std::vector<double> serialize_histogram(const Histogram& h) {
  std::vector<double> out;
  out.reserve(5 + static_cast<size_t>(h.bins()));
  out.push_back(h.lo());
  out.push_back(h.hi());
  out.push_back(static_cast<double>(h.bins()));
  out.push_back(static_cast<double>(h.underflow()));
  out.push_back(static_cast<double>(h.overflow()));
  for (int b = 0; b < h.bins(); ++b) {
    out.push_back(static_cast<double>(h.count(b)));
  }
  return out;
}

Histogram deserialize_histogram(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 5, "histogram payload too short");
  const int bins = round_to<int>(data[2]);
  HIA_REQUIRE(data.size() == 5 + static_cast<size_t>(bins),
              "histogram payload size mismatch");
  Histogram h(data[0], data[1], bins);
  h.restore(std::span(data.data() + 5, static_cast<size_t>(bins)),
            round_to<uint64_t>(data[3]), round_to<uint64_t>(data[4]));
  return h;
}

std::pair<double, double> owned_range(const Field& field) {
  const Box3& box = field.owned();
  double lo = field.at(box.lo[0], box.lo[1], box.lo[2]);
  double hi = lo;
  for_each_row(box, [&](const BoxRow& r) {
    const double* row = field.row(r);
    for (int64_t i = 0; i < r.n; ++i) {
      lo = std::min(lo, row[i]);
      hi = std::max(hi, row[i]);
    }
  });
  return {lo, hi};
}

Histogram histogram_learn_field(const Field& field, double lo, double hi,
                                int bins) {
  Histogram h(lo, hi, bins);
  for_each_row(field.owned(), [&](const BoxRow& r) {
    const double* row = field.row(r);
    for (int64_t i = 0; i < r.n; ++i) h.update(row[i]);
  });
  return h;
}

void HybridHistogram::in_situ(InSituContext& ctx) {
  const Field& field = ctx.sim().field(config_.variable);

  // Binning must be identical on every rank. Either the user fixed it, or
  // the ranks agree per invocation with one small min/max all-reduce —
  // executed unconditionally so the collective sequence never diverges.
  std::pair<double, double> range;
  if (config_.range.has_value()) {
    range = *config_.range;
  } else {
    auto [lo, hi] = owned_range(field);
    lo = ctx.comm().allreduce_min(lo);
    hi = ctx.comm().allreduce_max(hi);
    const double pad = 0.1 * (hi - lo) + 1e-12;
    range = {lo - pad, hi + pad};
  }
  {
    std::lock_guard lock(mutex_);
    resolved_range_ = range;
  }

  ctx.publish("hist.partial", field.owned(),
              serialize_histogram(histogram_learn_field(
                  field, range.first, range.second, config_.bins)));
}

void HybridHistogram::in_transit(TaskContext& ctx) {
  std::optional<Histogram> global;
  for (const DataDescriptor& desc : ctx.task().inputs) {
    Histogram part = deserialize_histogram(ctx.pull_doubles(desc));
    if (!global.has_value()) {
      global = std::move(part);
    } else {
      global->combine(part);
    }
  }
  HIA_REQUIRE(global.has_value(), "histogram task with no inputs");

  ctx.set_result(serialize_histogram(*global));

  latest_.offer(ctx.task().step, std::move(global));
}

std::optional<Histogram> HybridHistogram::latest() const {
  return latest_.get();
}

}  // namespace hia
