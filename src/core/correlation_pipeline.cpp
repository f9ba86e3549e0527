#include "core/correlation_pipeline.hpp"

#include "util/error.hpp"

namespace hia {

CovarianceAccumulator correlation_learn_fields(const Field& x,
                                               const Field& y) {
  HIA_REQUIRE(x.owned() == y.owned(), "fields must share the owned box");
  CovarianceAccumulator acc;
  for_each_row(x.owned(), [&](const BoxRow& r) {
    const double* xr = x.row(r);
    const double* yr = y.row(r);
    for (int64_t i = 0; i < r.n; ++i) acc.update(xr[i], yr[i]);
  });
  return acc;
}

void HybridCorrelation::in_situ(InSituContext& ctx) {
  const CovarianceAccumulator acc = correlation_learn_fields(
      ctx.sim().field(x_), ctx.sim().field(y_));
  std::vector<double> packed(CovarianceAccumulator::kPackedSize);
  acc.pack(packed.data());
  ctx.publish("corr.partial", ctx.sim().field(x_).owned(), packed);
}

void HybridCorrelation::in_transit(TaskContext& ctx) {
  CovarianceAccumulator global;
  for (const DataDescriptor& desc : ctx.task().inputs) {
    const auto packed = ctx.pull_doubles(desc);
    HIA_REQUIRE(packed.size() == CovarianceAccumulator::kPackedSize,
                "malformed bivariate model payload");
    global.combine(CovarianceAccumulator::unpack(packed.data()));
  }
  const CorrelationModel model = derive_correlation(global);

  std::vector<double> flat{static_cast<double>(model.count),
                           model.covariance, model.pearson_r, model.slope,
                           model.intercept};
  ctx.set_result(flat);

  latest_.offer(ctx.task().step, model);
}

CorrelationModel HybridCorrelation::latest_model() const {
  return latest_.get();
}

}  // namespace hia
