// Numeric conversion helpers shared by the serialized-payload decoders.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace hia {

/// Round-to-nearest conversion for integral fields carried inside double
/// payloads (ids, counts, box bounds). Structured summaries travel the
/// staging path as double arrays, and a lossy staging codec may perturb
/// them by up to its error bound; a truncating static_cast would then be
/// off by one (e.g. 12345 decoded as 12344.9999994). Rounding recovers the
/// exact integer for any perturbation below 0.5 — far above every usable
/// quantization bound.
template <typename T>
[[nodiscard]] T round_to(double v) {
  return static_cast<T>(std::llround(v));
}

/// An accumulator's count from a double payload, checked before the cast
/// (NaN, negative or >= 2^64 is UB). Rounded like round_to(): a count a
/// codec perturbed decodes exactly; > 1/4 off an integer or > 2^53 throws.
[[nodiscard]] inline uint64_t packed_count(double v) {
  const double r = std::nearbyint(v);
  HIA_REQUIRE(std::isfinite(v) && r >= 0.0 && r <= 0x1p53 &&
                  std::fabs(v - r) <= 0.25,
              "packed count is not a non-negative integer <= 2^53");
  return static_cast<uint64_t>(r);
}

}  // namespace hia
