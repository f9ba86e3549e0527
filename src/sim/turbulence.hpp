// Synthetic turbulence: a divergence-free velocity field assembled from
// random Fourier modes with a prescribed energy spectrum.
//
// The paper's S3D case is a turbulent lifted H2 jet; what the analyses need
// from the flow is multi-scale structure that advects and strains the
// scalar fields so ignition kernels appear, move, and dissipate on short
// timescales. A Kraichnan-style synthetic field provides exactly that
// structure deterministically and cheaply.
#pragma once

#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace hia {

struct TurbulenceParams {
  int num_modes = 48;          // random Fourier modes
  double k_min = 2.0;          // lowest wavenumber (units of 2*pi/L)
  double k_max = 16.0;         // highest wavenumber
  double spectrum_slope = -5.0 / 3.0;  // Kolmogorov inertial range
  double rms_velocity = 1.0;   // target RMS of each component
  double time_scale = 0.5;     // eddy-turnover time for phase drift
  uint64_t seed = 42;
};

/// Deterministic synthetic turbulent velocity field u(x, t).
///
/// Each mode is u_m * cos(k_m . x + w_m t + phi_m) with u_m orthogonal to
/// k_m (divergence-free by construction) and |u_m| following the prescribed
/// spectrum. Evaluation is independent per point: ranks evaluate their own
/// sub-domains with no communication.
///
/// Whole grid rows along x use the separable form
///   cos(kx x + b) = cos(kx x) cos(b) - sin(kx x) sin(b),
///   b = ky y + kz z + omega t + phi,
/// so the cos/sin(kx x_i) factors are tabulated once per set of x
/// positions (XTable) and each (y, z, t) row costs one cos/sin pair per
/// mode plus multiply-adds over x. Every value depends only on the
/// positions passed in, so rows evaluated from global coordinates are
/// identical however the domain is decomposed.
class SyntheticTurbulence {
 public:
  /// Per-mode cos/sin(kx * x_i) over a fixed set of x positions; mode-major
  /// (entry m * size + i). Time-independent: build once, reuse every step.
  struct XTable {
    size_t size = 0;  // x positions per row
    std::vector<double> cos_kx;
    std::vector<double> sin_kx;
  };

  explicit SyntheticTurbulence(const TurbulenceParams& params = {});

  /// Velocity at physical position x and time t (the point query; also the
  /// reference the row evaluator is tested against).
  [[nodiscard]] Vec3 velocity(const Vec3& x, double t) const;

  /// Tabulates the x factors for the row positions `xs`.
  [[nodiscard]] XTable x_table(std::span<const double> xs) const;

  /// Velocity at (xs[i], y, z) and time t for every tabulated position i,
  /// written to u[i], v[i], w[i] (each `table.size` long).
  void velocity_row(const XTable& table, double y, double z, double t,
                    double* u, double* v, double* w) const;

  [[nodiscard]] const TurbulenceParams& params() const { return params_; }

 private:
  struct Mode {
    Vec3 k;          // wave vector
    Vec3 amplitude;  // orthogonal to k
    double omega;    // temporal frequency
    double phase;
  };

  TurbulenceParams params_;
  std::vector<Mode> modes_;
};

}  // namespace hia
