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
  reaction_row_.assign(static_cast<size_t>(owned_.extent(0)) *
                           kTransported.size(),
                       0.0);

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
  const Field& T = field(Variable::kTemperature);
  const Field& h2 = field(Variable::kYH2);
  const Field& o2 = field(Variable::kYO2);
  const Field& h2o = field(Variable::kYH2O);

  std::array<Field*, 5> minors{
      &field(Variable::kYH), &field(Variable::kYO), &field(Variable::kYOH),
      &field(Variable::kYHO2), &field(Variable::kYH2O2)};

  const double cy = g.physical[1] * 0.5;
  const double cz = g.physical[2] * 0.5;
  const int64_t i0 = owned_.lo[0], i1 = owned_.hi[0];
  const size_t nx = static_cast<size_t>(i1 - i0);

  for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j) {
      const double y = g.coord(1, j);
      const double z = g.coord(2, k);
      const double dy = y - cy;
      const double dz = z - cz;
      const double r = std::sqrt(dy * dy + dz * dz);
      const double core =
          0.5 * (1.0 - std::tanh((r - params_.jet_radius) /
                                 (0.25 * params_.jet_radius)));
      double* u_row = u.row(i0, i1, j, k);
      turbulence_.velocity_row(turbulence_x_, y, z, time_, u_row,
                               v.row(i0, i1, j, k), w.row(i0, i1, j, k));
      const double* t_row = T.row(i0, i1, j, k);
      const double* h2_row = h2.row(i0, i1, j, k);
      const double* o2_row = o2.row(i0, i1, j, k);
      const double* h2o_row = h2o.row(i0, i1, j, k);
      double* hrr_row = heat_release_.row(i0, i1, j, k);
      std::array<double*, 5> minor_rows;
      for (size_t s = 0; s < minors.size(); ++s) {
        minor_rows[s] = minors[s]->row(i0, i1, j, k);
      }
      for (size_t i = 0; i < nx; ++i) {
        u_row[i] += params_.jet_velocity * core;  // mean jet along +x

        // Diagnostics: heat-release rate and equilibrium minor species.
        const double hrr = chemistry_.rate(t_row[i], h2_row[i], o2_row[i]);
        hrr_row[i] = params_.chemistry.heat_release * hrr;
        const double c = std::min(1.0, h2o_row[i] / 0.9);
        const auto ms = chemistry_.minor_species(c);
        for (size_t s = 0; s < minors.size(); ++s) minor_rows[s][i] = ms[s];
      }
    }
  }
}

void S3DRank::compute_rhs(const std::vector<Field*>& transported,
                          std::vector<double>& rhs) {
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

  const int64_t i0 = owned_.lo[0], i1 = owned_.hi[0];
  const size_t nx = static_cast<size_t>(i1 - i0);
  const size_t cells = static_cast<size_t>(owned_.num_cells());
  // x neighbours past the row ends are ghost cells where the domain goes
  // on; at the domain boundary the end cell stands in for its missing
  // neighbour (zero-gradient outflow boundary), as do whole y/z rows.
  const bool has_xm = i0 > domain.lo[0];
  const bool has_xp = i1 < domain.hi[0];
  const int64_t s0 = i0 - (has_xm ? 1 : 0), s1 = i1 + (has_xp ? 1 : 0);

  size_t cell = 0;
  for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j, cell += nx) {
      const double* u_row = u.row(i0, i1, j, k);
      const double* v_row = v.row(i0, i1, j, k);
      const double* w_row = w.row(i0, i1, j, k);

      // Reaction sources, per field (kTransported order; N2 is inert and
      // its slot stays zero).
      const double* t_row = T.row(i0, i1, j, k);
      const double* h2_row = h2.row(i0, i1, j, k);
      const double* o2_row = o2.row(i0, i1, j, k);
      for (size_t i = 0; i < nx; ++i) {
        const auto src = chemistry_.sources(t_row[i], h2_row[i], o2_row[i]);
        reaction_row_[i] = src.temperature;
        reaction_row_[nx + i] = src.h2;
        reaction_row_[2 * nx + i] = src.o2;
        reaction_row_[3 * nx + i] = src.h2o;
      }

      const bool has_ym = j > domain.lo[1], has_yp = j + 1 < domain.hi[1];
      const bool has_zm = k > domain.lo[2], has_zp = k + 1 < domain.hi[2];
      for (size_t f = 0; f < kTransported.size(); ++f) {
        const Field& phi = *transported[f];
        // The centre row, checked together with its x ghosts.
        const double* c_row = phi.row(s0, s1, j, k) + (i0 - s0);
        const double* ym_row = has_ym ? phi.row(i0, i1, j - 1, k) : c_row;
        const double* yp_row = has_yp ? phi.row(i0, i1, j + 1, k) : c_row;
        const double* zm_row = has_zm ? phi.row(i0, i1, j, k - 1) : c_row;
        const double* zp_row = has_zp ? phi.row(i0, i1, j, k + 1) : c_row;
        const double* reaction = reaction_row_.data() + f * nx;
        double* out = rhs.data() + f * cells + cell;

        const double x_lo = has_xm ? c_row[-1] : c_row[0];
        const double x_hi = has_xp ? c_row[nx] : c_row[nx - 1];
        for (size_t i = 0; i < nx; ++i) {
          const double ui = u_row[i];
          const double vj = v_row[i];
          const double wk = w_row[i];
          const double c = c_row[i];
          const double xm = i > 0 ? c_row[i - 1] : x_lo;
          const double xp = i + 1 < nx ? c_row[i + 1] : x_hi;
          const double ym = ym_row[i], yp = yp_row[i];
          const double zm = zm_row[i], zp = zp_row[i];

          // First-order upwind advection.
          const double adv =
              ui * (ui > 0.0 ? (c - xm) / dx : (xp - c) / dx) +
              vj * (vj > 0.0 ? (c - ym) / dy : (yp - c) / dy) +
              wk * (wk > 0.0 ? (c - zm) / dz : (zp - c) / dz);

          // 7-point Laplacian diffusion.
          const double lap = (xm - 2.0 * c + xp) / (dx * dx) +
                             (ym - 2.0 * c + yp) / (dy * dy) +
                             (zm - 2.0 * c + zp) / (dz * dz);

          out[i] = -adv + nu * lap + reaction[i];
        }
      }
    }
  }
}

void S3DRank::apply_update(const std::vector<Field*>& transported,
                           const std::vector<double>& rhs, double dt) {
  const int64_t i0 = owned_.lo[0], i1 = owned_.hi[0];
  const size_t nx = static_cast<size_t>(i1 - i0);
  const size_t cells = static_cast<size_t>(owned_.num_cells());
  for (size_t f = 0; f < kTransported.size(); ++f) {
    Field& phi = *transported[f];
    const bool mass_fraction = kTransported[f] != Variable::kTemperature;
    const double* slope = rhs.data() + f * cells;
    for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
      for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j, slope += nx) {
        double* p = phi.row(i0, i1, j, k);
        if (mass_fraction) {
          for (size_t i = 0; i < nx; ++i) {
            p[i] = std::clamp(p[i] + dt * slope[i], 0.0, 1.0);
          }
        } else {
          for (size_t i = 0; i < nx; ++i) {
            p[i] = std::max(p[i] + dt * slope[i], 0.0);
          }
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
