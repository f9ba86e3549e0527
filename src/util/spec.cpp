#include "util/spec.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace hia::spec {

namespace {

/// `text` without its k/m/g suffix, and the suffix's power of two.
std::pair<std::string_view, int> unsuffixed(std::string_view text) {
  if (text.empty()) return {text, 0};
  switch (text.back()) {
    case 'k': case 'K': return {text.substr(0, text.size() - 1), 10};
    case 'm': case 'M': return {text.substr(0, text.size() - 1), 20};
    case 'g': case 'G': return {text.substr(0, text.size() - 1), 30};
    default: return {text, 0};
  }
}

std::string quoted(std::string_view text) {
  return std::string("'").append(text).append("'");
}

std::string bound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

void fail(std::string_view what, std::string_view why) {
  throw Error(std::string(what).append(": ").append(why));
}

std::vector<std::string_view> list(std::string_view text) {
  std::vector<std::string_view> out;
  while (!text.empty()) {
    const Pair p = split(text, ',');
    if (!p.first.empty()) out.push_back(p.first);
    text = p.second;
  }
  return out;
}

void for_each(std::string_view grammar, std::string_view spec,
              const std::function<void(const Item&)>& fn) {
  for (const std::string_view piece : list(spec)) {
    const Pair kv = split(piece, '=');
    Item item;
    item.what = std::string(grammar).append(" ").append(kv.first);
    item.key = kv.first;
    item.value = kv.second;
    item.has_value = kv.has_second;
    fn(item);
  }
}

Pair split(std::string_view text, char sep) {
  const size_t at = text.find(sep);
  if (at == std::string_view::npos) return {text, {}, false};
  return {text.substr(0, at), text.substr(at + 1), true};
}

Pair pair(std::string_view what, std::string_view text, char sep,
          std::string_view form) {
  const Pair p = split(text, sep);
  if (p.first.empty() || p.second.empty()) {
    fail(what, std::string("needs ").append(form).append(", got ") +
                   quoted(text));
  }
  return p;
}

double real(std::string_view what, std::string_view text, double lo,
            double hi) {
  const auto [body, shift] = unsuffixed(text);
  double v = 0.0;
  const char* end = body.data() + body.size();
  const auto [ptr, ec] = std::from_chars(body.data(), end, v);
  const bool parsed = !body.empty() && ec == std::errc() && ptr == end;
  if (parsed) v = std::ldexp(v, shift);
  if (!parsed || !std::isfinite(v)) {
    fail(what, "expected a finite number, got " + quoted(text));
  }
  if (!(v >= lo && v <= hi)) {
    fail(what, quoted(text) + " is outside [" + bound(lo) + ", " +
                   bound(hi) + "]");
  }
  return v;
}

double positive(std::string_view what, std::string_view text) {
  const double v = real(what, text);
  if (!(v > 0.0)) fail(what, "must be > 0, got " + quoted(text));
  return v;
}

namespace detail {

Whole whole(std::string_view what, std::string_view text) {
  const auto [body, shift] = unsuffixed(text);
  Whole w;
  std::string_view digits = body;
  w.negative = !digits.empty() && digits.front() == '-';
  if (w.negative) digits.remove_prefix(1);
  if (!digits.empty() &&
      digits.find_first_not_of("0123456789") == std::string_view::npos) {
    const auto [ptr, ec] = std::from_chars(
        digits.data(), digits.data() + digits.size(), w.magnitude);
    if (ec != std::errc() ||
        (shift > 0 && (w.magnitude >> (64 - shift)) != 0)) {
      fail(what, quoted(text) + " is out of range");
    }
    w.magnitude <<= shift;
    return w;
  }
  const double v = real(what, text);
  if (v != std::trunc(v)) {
    fail(what, "expected a whole number, got " + quoted(text));
  }
  if (!(std::fabs(v) < 0x1p64)) fail(what, quoted(text) + " is out of range");
  w.negative = v < 0.0;
  w.magnitude = static_cast<uint64_t>(std::fabs(v));
  return w;
}

}  // namespace detail

}  // namespace hia::spec
