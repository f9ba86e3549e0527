// The one spec grammar (DESIGN.md §13): every `key=value,...` spec and
// every numeric command-line flag reads through this module.
//
//   spec     := item (',' item)*          empty items are skipped
//   item     := key ['=' value]
//   number   := finite decimal [k|K|m|M|g|G]   suffix scales by 2^10/20/30
//
// Readers throw hia::Error naming the directive; non-finite reals,
// fractions in integer fields and out-of-range values are errors, never
// casts.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hia::spec {

/// One `key[=value]` item of a spec.
struct Item {
  std::string what;        // "<grammar> <key>", the name errors carry
  std::string_view key;
  std::string_view value;  // text after the first '='; empty without one
  bool has_value = false;
};

/// Throws hia::Error("<what>: <why>").
[[noreturn]] void fail(std::string_view what, std::string_view why);

/// The non-empty comma-separated pieces of `text`, in order.
std::vector<std::string_view> list(std::string_view text);

/// Calls `fn` on each item of `spec` in order. `grammar` ("--faults")
/// prefixes the item's `what`.
void for_each(std::string_view grammar, std::string_view spec,
              const std::function<void(const Item&)>& fn);

/// `text` split at its first `sep`; `second` is empty and `has_second`
/// false when `sep` does not occur.
struct Pair {
  std::string_view first;
  std::string_view second;
  bool has_second = false;
};
Pair split(std::string_view text, char sep);

/// As split(), but both halves must be present and non-empty; throws
/// "<what> needs <form>" otherwise.
Pair pair(std::string_view what, std::string_view text, char sep,
          std::string_view form);

/// A number (the rule above) in [lo, hi].
double real(std::string_view what, std::string_view text,
            double lo = -std::numeric_limits<double>::infinity(),
            double hi = std::numeric_limits<double>::infinity());

/// A number > 0.
double positive(std::string_view what, std::string_view text);

/// A number in [0, 1].
inline double probability(std::string_view what, std::string_view text) {
  return real(what, text, 0.0, 1.0);
}

namespace detail {
/// A whole number as sign and magnitude. Plain digit strings read exactly
/// (every uint64_t seed round-trips); other forms ("1e3", "1.5k") must be
/// integral reals below 2^64 in magnitude.
struct Whole {
  bool negative = false;
  uint64_t magnitude = 0;
};
Whole whole(std::string_view what, std::string_view text);
}  // namespace detail

/// A whole number of type T in [lo, hi].
template <typename T>
T integer(std::string_view what, std::string_view text,
          T lo = std::numeric_limits<T>::min(),
          T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>);
  const detail::Whole w = detail::whole(what, text);
  if (!w.negative) {
    if (std::cmp_greater_equal(w.magnitude, lo) &&
        std::cmp_less_equal(w.magnitude, hi)) {
      return static_cast<T>(w.magnitude);
    }
  } else if (w.magnitude <= uint64_t{1} << 63) {
    const int64_t v =
        w.magnitude == 0 ? 0 : -static_cast<int64_t>(w.magnitude - 1) - 1;
    if (std::cmp_greater_equal(v, lo) && std::cmp_less_equal(v, hi)) {
      return static_cast<T>(v);
    }
  }
  fail(what, std::string("'").append(text).append("' is outside [") +
                 std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

/// The value paired with `text` among `names`; throws listing the names.
template <typename T>
T choice(std::string_view what, std::string_view text,
         std::initializer_list<std::pair<std::string_view, T>> names) {
  std::string known;
  for (const auto& [name, value] : names) {
    if (name == text) return value;
    known.append(known.empty() ? "" : ", ").append(name);
  }
  fail(what, "expected one of " + known + ", got '" + std::string(text) +
                 "'");
}

}  // namespace hia::spec
