#include "sim/s3d.hpp"

#include <algorithm>
#include <cmath>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "sim/halo.hpp"
#include "util/stopwatch.hpp"

namespace hia {

namespace {
constexpr int kGhost = 1;

/// The scalar variables advanced by the PDE; velocities are prescribed and
/// minor species are diagnostic.
constexpr std::array<Variable, 5> kTransported{
    Variable::kTemperature, Variable::kYH2, Variable::kYO2, Variable::kYH2O,
    Variable::kYN2};
}  // namespace

S3DRank::S3DRank(const S3DParams& params, int rank)
    : params_(params),
      rank_(rank),
      decomp_(params.grid, params.ranks_per_axis),
      owned_(decomp_.block(rank)),
      chemistry_(params.chemistry),
      seeder_(params.chemistry),
      turbulence_(params.turbulence),
      heat_release_("hrr", owned_) {
  fields_.reserve(kNumVariables);
  for (int v = 0; v < kNumVariables; ++v) {
    fields_.emplace_back(std::string(kVariableNames[static_cast<size_t>(v)]),
                         owned_, params.grid.bounds(), kGhost);
  }
  scratch_.resize(static_cast<size_t>(owned_.num_cells()) *
                  kTransported.size());

  // Global x coordinates, so every rank layout evaluates identical rows.
  std::vector<double> xs;
  for (int64_t i = owned_.lo[0]; i < owned_.hi[0]; ++i) {
    xs.push_back(params.grid.coord(0, i));
  }
  turbulence_x_ = turbulence_.x_table(xs);
}

size_t S3DRank::solution_bytes() const {
  return static_cast<size_t>(owned_.num_cells()) * kNumVariables *
         sizeof(double);
}

void S3DRank::initialize() {
  const GlobalGrid& g = params_.grid;
  Field& T = field(Variable::kTemperature);
  Field& h2 = field(Variable::kYH2);
  Field& o2 = field(Variable::kYO2);
  Field& h2o = field(Variable::kYH2O);
  Field& n2 = field(Variable::kYN2);
  Field& P = field(Variable::kPressure);

  const double cy = g.physical[1] * 0.5;
  const double cz = g.physical[2] * 0.5;

  for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j) {
      for (int64_t i = owned_.lo[0]; i < owned_.hi[0]; ++i) {
        const double y = g.coord(1, j) - cy;
        const double z = g.coord(2, k) - cz;
        const double r = std::sqrt(y * y + z * z);
        // Fuel core: smooth tanh shear layer around the jet radius.
        const double core =
            0.5 * (1.0 - std::tanh((r - params_.jet_radius) /
                                   (0.25 * params_.jet_radius)));
        const double y_h2 = 0.9 * core;
        const double y_o2 = 0.232 * (1.0 - core);  // air coflow
        T.at(i, j, k) = params_.chemistry.ambient_temperature;
        h2.at(i, j, k) = y_h2;
        o2.at(i, j, k) = y_o2;
        h2o.at(i, j, k) = 0.0;
        n2.at(i, j, k) = 1.0 - y_h2 - y_o2;
        P.at(i, j, k) = 1.0;
      }
    }
  }
  update_velocity_and_diagnostics();
  step_ = 0;
  time_ = 0.0;
}

void S3DRank::apply_kernels(long step) {
  // All ranks draw the same kernel sequence; each applies the intersection
  // with its own block (see KernelSeeder doc).
  const GlobalGrid& g = params_.grid;
  Field& T = field(Variable::kTemperature);
  for (const IgnitionKernel& kern : seeder_.kernels_for_step(step)) {
    const double cx = kern.cx * g.physical[0];
    const double cy = kern.cy * g.physical[1];
    const double cz = kern.cz * g.physical[2];
    // Bounding box of the 3-sigma support, in index space.
    const double support = 3.0 * kern.radius;
    Box3 bb;
    bb.lo[0] = static_cast<int64_t>((cx - support) / g.spacing(0)) - 1;
    bb.hi[0] = static_cast<int64_t>((cx + support) / g.spacing(0)) + 2;
    bb.lo[1] = static_cast<int64_t>((cy - support) / g.spacing(1)) - 1;
    bb.hi[1] = static_cast<int64_t>((cy + support) / g.spacing(1)) + 2;
    bb.lo[2] = static_cast<int64_t>((cz - support) / g.spacing(2)) - 1;
    bb.hi[2] = static_cast<int64_t>((cz + support) / g.spacing(2)) + 2;
    const Box3 local = bb.intersect(owned_);
    if (local.empty()) continue;

    const double inv2r2 = 1.0 / (2.0 * kern.radius * kern.radius);
    for (int64_t k = local.lo[2]; k < local.hi[2]; ++k) {
      for (int64_t j = local.lo[1]; j < local.hi[1]; ++j) {
        for (int64_t i = local.lo[0]; i < local.hi[0]; ++i) {
          const double dx = g.coord(0, i) - cx;
          const double dy = g.coord(1, j) - cy;
          const double dz = g.coord(2, k) - cz;
          const double r2 = dx * dx + dy * dy + dz * dz;
          T.at(i, j, k) += kern.amplitude * std::exp(-r2 * inv2r2);
        }
      }
    }
  }
}

void S3DRank::update_velocity_and_diagnostics() {
  const GlobalGrid& g = params_.grid;
  Field& u = field(Variable::kVelU);
  Field& v = field(Variable::kVelV);
  Field& w = field(Variable::kVelW);
  Field& T = field(Variable::kTemperature);
  Field& h2 = field(Variable::kYH2);
  Field& o2 = field(Variable::kYO2);
  Field& h2o = field(Variable::kYH2O);

  std::array<Field*, 5> minors{
      &field(Variable::kYH), &field(Variable::kYO), &field(Variable::kYOH),
      &field(Variable::kYHO2), &field(Variable::kYH2O2)};

  const double cy = g.physical[1] * 0.5;
  const double cz = g.physical[2] * 0.5;

  for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j) {
      const int64_t i0 = owned_.lo[0];
      const double y = g.coord(1, j);
      const double z = g.coord(2, k);
      const double dy = y - cy;
      const double dz = z - cz;
      const double r = std::sqrt(dy * dy + dz * dz);
      const double core =
          0.5 * (1.0 - std::tanh((r - params_.jet_radius) /
                                 (0.25 * params_.jet_radius)));
      double* u_row = &u.at(i0, j, k);
      turbulence_.velocity_row(turbulence_x_, y, z, time_, u_row,
                               &v.at(i0, j, k), &w.at(i0, j, k));
      for (int64_t i = i0; i < owned_.hi[0]; ++i) {
        u_row[i - i0] += params_.jet_velocity * core;  // mean jet along +x

        // Diagnostics: heat-release rate and equilibrium minor species.
        const double hrr =
            chemistry_.rate(T.at(i, j, k), h2.at(i, j, k), o2.at(i, j, k));
        heat_release_.at(i, j, k) = params_.chemistry.heat_release * hrr;
        const double c = std::min(1.0, h2o.at(i, j, k) / 0.9);
        const auto ms = chemistry_.minor_species(c);
        for (size_t s = 0; s < minors.size(); ++s) {
          minors[s]->at(i, j, k) = ms[s];
        }
      }
    }
  }
}

void S3DRank::compute_rhs(const std::vector<Field*>& transported,
                          std::vector<double>& rhs) const {
  const GlobalGrid& g = params_.grid;
  const Box3 domain = g.bounds();
  const double dx = g.spacing(0), dy = g.spacing(1), dz = g.spacing(2);
  const double nu = params_.diffusivity;

  const Field& u = field(Variable::kVelU);
  const Field& v = field(Variable::kVelV);
  const Field& w = field(Variable::kVelW);
  const Field& T = *transported[0];   // kTransported order
  const Field& h2 = *transported[1];
  const Field& o2 = *transported[2];

  const size_t cells = static_cast<size_t>(owned_.num_cells());
  size_t cell = 0;
  for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j) {
      for (int64_t i = owned_.lo[0]; i < owned_.hi[0]; ++i, ++cell) {
        const double ui = u.at(i, j, k);
        const double vj = v.at(i, j, k);
        const double wk = w.at(i, j, k);

        const auto src = chemistry_.sources(T.at(i, j, k), h2.at(i, j, k),
                                            o2.at(i, j, k));
        const std::array<double, 5> reaction{src.temperature, src.h2, src.o2,
                                             src.h2o, 0.0};

        for (size_t f = 0; f < kTransported.size(); ++f) {
          const Field& phi = *transported[f];
          const double c = phi.at(i, j, k);

          // Clamped neighbor lookups: outside the domain we use the local
          // value (zero-gradient outflow boundary).
          auto val = [&](int64_t ii, int64_t jj, int64_t kk) {
            if (!domain.contains(ii, jj, kk)) return c;
            return phi.at(ii, jj, kk);
          };

          const double xm = val(i - 1, j, k), xp = val(i + 1, j, k);
          const double ym = val(i, j - 1, k), yp = val(i, j + 1, k);
          const double zm = val(i, j, k - 1), zp = val(i, j, k + 1);

          // First-order upwind advection.
          const double adv =
              ui * (ui > 0.0 ? (c - xm) / dx : (xp - c) / dx) +
              vj * (vj > 0.0 ? (c - ym) / dy : (yp - c) / dy) +
              wk * (wk > 0.0 ? (c - zm) / dz : (zp - c) / dz);

          // 7-point Laplacian diffusion.
          const double lap = (xm - 2.0 * c + xp) / (dx * dx) +
                             (ym - 2.0 * c + yp) / (dy * dy) +
                             (zm - 2.0 * c + zp) / (dz * dz);

          rhs[f * cells + cell] = -adv + nu * lap + reaction[f];
        }
      }
    }
  }
}

void S3DRank::apply_update(const std::vector<Field*>& transported,
                           const std::vector<double>& rhs, double dt) {
  const size_t cells = static_cast<size_t>(owned_.num_cells());
  size_t cell = 0;
  for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j) {
      for (int64_t i = owned_.lo[0]; i < owned_.hi[0]; ++i, ++cell) {
        for (size_t f = 0; f < kTransported.size(); ++f) {
          Field& phi = *transported[f];
          double next = phi.at(i, j, k) + dt * rhs[f * cells + cell];
          if (kTransported[f] != Variable::kTemperature) {
            next = std::clamp(next, 0.0, 1.0);
          } else {
            next = std::max(next, 0.0);
          }
          phi.at(i, j, k) = next;
        }
      }
    }
  }
}

void S3DRank::advance(Comm& comm) {
  // Step span carries the virtual (simulated) clock; phases nest inside.
  obs::Span step_span("sim", "step",
                      {.rank = rank_, .step = step_, .vtime = time_});
  Stopwatch watch;

  std::vector<Field*> transported;
  transported.reserve(kTransported.size());
  for (Variable v : kTransported) transported.push_back(&field(v));

  const double dt = params_.dt;
  const size_t cells = static_cast<size_t>(owned_.num_cells());

  // Stage 1: refresh ghosts, evaluate RHS, step forward.
  exchange_halos(comm, decomp_, transported, kGhost);
  {
    obs::Span rhs_span("sim", "rhs", {.rank = rank_, .step = step_});
    compute_rhs(transported, scratch_);
  }

  if (params_.integrator == TimeIntegrator::kEuler) {
    apply_update(transported, scratch_, dt);
  } else {
    // Heun's method: y1 = y + dt f(y); y' = y + dt/2 (f(y) + f(y1)).
    if (saved_.size() != cells * kTransported.size()) {
      saved_.resize(cells * kTransported.size());
      scratch2_.resize(cells * kTransported.size());
    }
    for (size_t f = 0; f < kTransported.size(); ++f) {
      const auto owned_values = transported[f]->pack_owned();
      std::copy(owned_values.begin(), owned_values.end(),
                saved_.begin() + static_cast<std::ptrdiff_t>(f * cells));
    }
    apply_update(transported, scratch_, dt);  // fields now hold y1
    exchange_halos(comm, decomp_, transported, kGhost);
    // Stage 2 evaluates f(t + dt, y1): advance the prescribed velocity to
    // the end of the step for the second slope, then restore the clock.
    time_ += dt;
    update_velocity_and_diagnostics();
    time_ -= dt;
    {
      obs::Span rhs_span("sim", "rhs", {.rank = rank_, .step = step_});
      compute_rhs(transported, scratch2_);
    }

    // Combine: restore y, then advance with the averaged slope.
    for (size_t f = 0; f < kTransported.size(); ++f) {
      Box3 box = owned_;
      transported[f]->unpack(
          box, std::span<const double>(saved_.data() + f * cells, cells));
    }
    for (size_t c = 0; c < scratch_.size(); ++c) {
      scratch_[c] = 0.5 * (scratch_[c] + scratch2_[c]);
    }
    apply_update(transported, scratch_, dt);
  }

  // Intermittent ignition kernels, prescribed velocity, diagnostics.
  apply_kernels(step_);
  time_ += dt;
  ++step_;
  {
    obs::Span diag_span("sim", "chemistry",
                        {.rank = rank_, .step = step_, .vtime = time_});
    update_velocity_and_diagnostics();
  }

  last_step_seconds_ = watch.seconds();
  static obs::Histogram& step_h = obs::histogram("sim_step_s");
  step_h.record(last_step_seconds_);
}

}  // namespace hia
