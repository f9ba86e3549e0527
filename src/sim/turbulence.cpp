#include "sim/turbulence.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace hia {

SyntheticTurbulence::SyntheticTurbulence(const TurbulenceParams& params)
    : params_(params) {
  HIA_REQUIRE(params.num_modes > 0, "need at least one mode");
  HIA_REQUIRE(params.k_max > params.k_min && params.k_min > 0.0,
              "need 0 < k_min < k_max");

  Xoshiro256 rng(params.seed, /*stream_id=*/7);
  modes_.reserve(static_cast<size_t>(params.num_modes));

  // Sample wavenumber magnitudes log-uniformly across [k_min, k_max] and
  // weight amplitudes by E(k) ~ k^slope so the inertial range has the right
  // relative energy distribution.
  double energy_sum = 0.0;
  std::vector<double> energies(static_cast<size_t>(params.num_modes));
  std::vector<double> kmags(static_cast<size_t>(params.num_modes));
  for (int m = 0; m < params.num_modes; ++m) {
    const double frac = (static_cast<double>(m) + rng.uniform()) /
                        static_cast<double>(params.num_modes);
    const double kmag =
        params.k_min * std::pow(params.k_max / params.k_min, frac);
    kmags[static_cast<size_t>(m)] = kmag;
    const double e = std::pow(kmag, params.spectrum_slope);
    energies[static_cast<size_t>(m)] = e;
    energy_sum += e;
  }

  for (int m = 0; m < params.num_modes; ++m) {
    // Random direction on the sphere for the wave vector.
    Vec3 khat;
    do {
      khat = Vec3{rng.normal(), rng.normal(), rng.normal()};
    } while (khat.norm() < 1e-12);
    khat = khat.normalized();

    const double kmag = kmags[static_cast<size_t>(m)] * 2.0 *
                        std::numbers::pi;  // physical wavenumber
    // Amplitude direction orthogonal to k (incompressibility).
    Vec3 a;
    do {
      const Vec3 rand_dir{rng.normal(), rng.normal(), rng.normal()};
      a = khat.cross(rand_dir);
    } while (a.norm() < 1e-12);
    a = a.normalized();

    // Scale so the total field RMS matches rms_velocity. Each cosine mode
    // contributes amp^2/2 per component on average.
    const double frac_energy =
        energies[static_cast<size_t>(m)] / energy_sum;
    const double amp =
        params.rms_velocity * std::sqrt(2.0 * 3.0 * frac_energy);

    Mode mode;
    mode.k = khat * kmag;
    mode.amplitude = a * amp;
    mode.omega = 2.0 * std::numbers::pi / params.time_scale *
                 std::sqrt(kmags[static_cast<size_t>(m)] / params.k_min);
    mode.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    modes_.push_back(mode);
  }
}

Vec3 SyntheticTurbulence::velocity(const Vec3& x, double t) const {
  Vec3 u;
  for (const Mode& m : modes_) {
    const double arg = m.k.dot(x) + m.omega * t + m.phase;
    u += m.amplitude * std::cos(arg);
  }
  return u;
}

SyntheticTurbulence::XTable SyntheticTurbulence::x_table(
    std::span<const double> xs) const {
  XTable table;
  table.size = xs.size();
  table.cos_kx.resize(modes_.size() * xs.size());
  table.sin_kx.resize(modes_.size() * xs.size());
  for (size_t m = 0; m < modes_.size(); ++m) {
    for (size_t i = 0; i < xs.size(); ++i) {
      const double arg = modes_[m].k.x * xs[i];
      table.cos_kx[m * xs.size() + i] = std::cos(arg);
      table.sin_kx[m * xs.size() + i] = std::sin(arg);
    }
  }
  return table;
}

void SyntheticTurbulence::velocity_row(const XTable& table, double y,
                                       double z, double t, double* u,
                                       double* v, double* w) const {
  const size_t n = table.size;
  HIA_REQUIRE(table.cos_kx.size() == modes_.size() * n &&
                  table.sin_kx.size() == modes_.size() * n,
              "x table was built for a different mode set");
  std::fill(u, u + n, 0.0);
  std::fill(v, v + n, 0.0);
  std::fill(w, w + n, 0.0);
  for (size_t m = 0; m < modes_.size(); ++m) {
    const Mode& mode = modes_[m];
    const double beta =
        mode.k.y * y + mode.k.z * z + mode.omega * t + mode.phase;
    const double cb = std::cos(beta);
    const double sb = std::sin(beta);
    const double* cx = table.cos_kx.data() + m * n;
    const double* sx = table.sin_kx.data() + m * n;
    const Vec3 a = mode.amplitude;
    for (size_t i = 0; i < n; ++i) {
      const double c = cx[i] * cb - sx[i] * sb;
      u[i] += a.x * c;
      v[i] += a.y * c;
      w[i] += a.z * c;
    }
  }
}

}  // namespace hia
