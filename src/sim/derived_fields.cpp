#include "sim/derived_fields.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hia {

namespace {

/// Central difference along `axis` at cell `at`, which `c` points to, with
/// one-sided fallback at the domain boundary. The neighbours are clamped
/// to the field's storage box, so stepping from `c` stays in the field.
double derivative(const GlobalGrid& grid, const Field& f, const double* c,
                  const int64_t (&at)[3], int axis) {
  const Box3& st = f.storage();
  const int64_t hi = std::min(at[axis] + 1, st.hi[axis] - 1) - at[axis];
  const int64_t lo = std::max(at[axis] - 1, st.lo[axis]) - at[axis];
  const double span = static_cast<double>(hi - lo) * grid.spacing(axis);
  if (span == 0.0) return 0.0;
  const int64_t stride =
      axis == 0 ? 1 : st.extent(0) * (axis == 1 ? 1 : st.extent(1));
  return (c[hi * stride] - c[lo * stride]) / span;
}

}  // namespace

Field gradient_magnitude(const GlobalGrid& grid, const Field& f) {
  Field out("grad_" + f.name(), f.owned());
  for_each_row(f.owned(), [&](const BoxRow& r) {
    const double* c = f.row(r);
    double* o = out.row(r);
    for (int64_t x = 0; x < r.n; ++x) {
      const int64_t at[3] = {r.i0 + x, r.j, r.k};
      const double gx = derivative(grid, f, c + x, at, 0);
      const double gy = derivative(grid, f, c + x, at, 1);
      const double gz = derivative(grid, f, c + x, at, 2);
      o[x] = std::sqrt(gx * gx + gy * gy + gz * gz);
    }
  });
  return out;
}

Field vorticity_magnitude(const GlobalGrid& grid, const Field& u,
                          const Field& v, const Field& w) {
  HIA_REQUIRE(u.owned() == v.owned() && v.owned() == w.owned(),
              "velocity components must share the owned box");
  Field out("vorticity", u.owned());
  for_each_row(u.owned(), [&](const BoxRow& r) {
    const double* cu = u.row(r);
    const double* cv = v.row(r);
    const double* cw = w.row(r);
    double* o = out.row(r);
    for (int64_t x = 0; x < r.n; ++x) {
      const int64_t at[3] = {r.i0 + x, r.j, r.k};
      const double wy = derivative(grid, w, cw + x, at, 1);
      const double vz = derivative(grid, v, cv + x, at, 2);
      const double uz = derivative(grid, u, cu + x, at, 2);
      const double wx = derivative(grid, w, cw + x, at, 0);
      const double vx = derivative(grid, v, cv + x, at, 0);
      const double uy = derivative(grid, u, cu + x, at, 1);
      const double ox = wy - vz;
      const double oy = uz - wx;
      const double oz = vx - uy;
      o[x] = std::sqrt(ox * ox + oy * oy + oz * oz);
    }
  });
  return out;
}

Field mixture_fraction(const Field& y_h2, const Field& y_h2o) {
  HIA_REQUIRE(y_h2.owned() == y_h2o.owned(),
              "species fields must share the owned box");
  Field out("Z", y_h2.owned());
  constexpr double kFuelH2 = 0.9;  // fuel-stream H2 mass fraction
  for_each_row(y_h2.owned(), [&](const BoxRow& r) {
    const double* h2 = y_h2.row(r);
    const double* h2o = y_h2o.row(r);
    double* o = out.row(r);
    for (int64_t i = 0; i < r.n; ++i) {
      const double zh = h2[i] + (2.0 / 18.0) * h2o[i];
      o[i] = std::clamp(zh / kFuelH2, 0.0, 1.0);
    }
  });
  return out;
}

Field scalar_dissipation(const GlobalGrid& grid, const Field& z,
                         double diffusivity) {
  HIA_REQUIRE(diffusivity >= 0.0, "diffusivity must be non-negative");
  Field out("chi", z.owned());
  const Field grad = gradient_magnitude(grid, z);
  for_each_row(z.owned(), [&](const BoxRow& r) {
    const double* g = grad.row(r);
    double* o = out.row(r);
    for (int64_t i = 0; i < r.n; ++i) o[i] = 2.0 * diffusivity * g[i] * g[i];
  });
  return out;
}

}  // namespace hia
