#include "core/contingency_pipeline.hpp"

#include "util/error.hpp"

namespace hia {

ContingencyTable contingency_learn_fields(const Field& x, const Field& y,
                                          const Categorizer& cx,
                                          const Categorizer& cy) {
  HIA_REQUIRE(x.owned() == y.owned(), "fields must share the owned box");
  ContingencyTable table(cx.bins(), cy.bins());
  for_each_row(x.owned(), [&](const BoxRow& r) {
    const double* xr = x.row(r);
    const double* yr = y.row(r);
    for (int64_t i = 0; i < r.n; ++i) {
      table.update(cx.category(xr[i]), cy.category(yr[i]));
    }
  });
  return table;
}

void HybridContingency::in_situ(InSituContext& ctx) {
  const Field& fx = ctx.sim().field(config_.x);
  const ContingencyTable table = contingency_learn_fields(
      fx, ctx.sim().field(config_.y),
      Categorizer(config_.x_lo, config_.x_hi, config_.x_bins),
      Categorizer(config_.y_lo, config_.y_hi, config_.y_bins));
  ctx.publish("cont.partial", fx.owned(), table.serialize());
}

void HybridContingency::in_transit(TaskContext& ctx) {
  ContingencyTable global(config_.x_bins, config_.y_bins);
  for (const DataDescriptor& desc : ctx.task().inputs) {
    global.combine(ContingencyTable::deserialize(ctx.pull_doubles(desc)));
  }
  const ContingencyModel model = derive_contingency(global);

  std::vector<double> flat{static_cast<double>(model.total),
                           model.chi_squared, model.cramers_v,
                           model.mutual_information};
  ctx.set_result(flat);

  latest_.offer(ctx.task().step, model);
  latest_table_.offer(ctx.task().step, std::move(global));
}

ContingencyModel HybridContingency::latest_model() const {
  return latest_.get();
}

std::optional<ContingencyTable> HybridContingency::latest_table() const {
  return latest_table_.get();
}

}  // namespace hia
