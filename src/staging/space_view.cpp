#include "staging/space_view.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hia {

DataDescriptor SpaceView::put(const std::string& variable, long step,
                              const Box3& box,
                              const std::vector<double>& data,
                              const Codec* codec) {
  HIA_REQUIRE(static_cast<int64_t>(data.size()) == box.num_cells(),
              "put: data does not match box");
  DataDescriptor desc;
  desc.variable = variable;
  desc.step = step;
  desc.box = box;
  desc.src_node = node_;
  desc.handle = codec == nullptr ? dart_.put_doubles(node_, data)
                                 : dart_.put_doubles(node_, data, *codec);
  store_.put(desc);
  return desc;
}

std::vector<double> SpaceView::get(const std::string& variable, long step,
                                   const Box3& box, TransferStats* stats) {
  HIA_REQUIRE(!box.empty(), "get: empty region");
  const auto descs = store_.query(variable, step, box);

  std::vector<double> out(static_cast<size_t>(box.num_cells()), 0.0);
  std::vector<char> filled(out.size(), 0);
  TransferStats total;

  for (const DataDescriptor& d : descs) {
    TransferStats one;
    const auto block = dart_.get_doubles(node_, d.handle, &one);
    total.bytes += one.bytes;
    total.raw_bytes += one.raw_bytes;
    total.modeled_seconds += one.modeled_seconds;
    total.decode_seconds += one.decode_seconds;
    total.encoded = total.encoded || one.encoded;
    HIA_REQUIRE(block.size() == static_cast<size_t>(d.box.num_cells()),
                "get: staged block does not match its descriptor box");
    for_each_row(box.intersect(d.box), [&](const BoxRow& r) {
      std::copy_n(box_row(block, d.box, r), r.n, box_row(out, box, r));
      std::fill_n(box_row(filled, box, r), r.n, 1);
    });
  }

  if (const auto gap = std::find(filled.begin(), filled.end(), 0);
      gap != filled.end()) {
    int64_t i, j, k;
    box.coords(static_cast<size_t>(gap - filled.begin()), i, j, k);
    throw Error("get: region not fully covered at (" + std::to_string(i) +
                "," + std::to_string(j) + "," + std::to_string(k) + ") for " +
                variable + " step " + std::to_string(step));
  }
  if (stats != nullptr) *stats = total;
  return out;
}

bool SpaceView::covered(const std::string& variable, long step,
                        const Box3& box) const {
  const auto descs = store_.query(variable, step, box);
  std::vector<char> filled(static_cast<size_t>(box.num_cells()), 0);
  for (const DataDescriptor& d : descs) {
    for_each_row(box.intersect(d.box), [&](const BoxRow& r) {
      std::fill_n(box_row(filled, box, r), r.n, 1);
    });
  }
  return std::find(filled.begin(), filled.end(), 0) == filled.end();
}

void SpaceView::evict(const std::string& variable, long step) {
  for (const DataDescriptor& d : store_.take(variable, step)) {
    dart_.release(d.handle);
  }
}

}  // namespace hia
