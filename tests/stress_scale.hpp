// Iteration multiplier for the randomized and concurrent stress tests.
//
// 1 by default, so tier-1 runs stay short. The sanitizer legs of
// ci/sanitize.sh export HIA_STRESS_SCALE to run each loop that many times
// longer under ASan/UBSan and TSan.
#pragma once

#include <algorithm>
#include <cstdlib>

namespace hia {

inline int stress_scale() {
  const char* env = std::getenv("HIA_STRESS_SCALE");
  return env != nullptr ? std::max(1, std::atoi(env)) : 1;
}

}  // namespace hia
