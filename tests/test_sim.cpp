// Tests for MiniS3D: physical sanity of the initial condition and time
// integration, intermittent kernel generation, turbulence properties (and
// the separable row evaluator against the point query), decomposition
// invariance (the same bytes regardless of rank layout), and the
// row-indexed step against the per-cell step it replaced (OracleS3D).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "runtime/comm.hpp"
#include "sim/chemistry.hpp"
#include "sim/halo.hpp"
#include "sim/s3d.hpp"
#include "sim/turbulence.hpp"

namespace hia {
namespace {

S3DParams small_params() {
  S3DParams p;
  p.grid = GlobalGrid{{24, 16, 16}, {1.0, 0.75, 0.75}};
  p.ranks_per_axis = {2, 2, 1};
  return p;
}

TEST(Chemistry, RateIncreasesWithTemperature) {
  Chemistry chem;
  const double cold = chem.rate(1.0, 0.5, 0.2);
  const double hot = chem.rate(4.0, 0.5, 0.2);
  EXPECT_GT(hot, cold);
  EXPECT_GT(cold, 0.0);
}

TEST(Chemistry, NoFuelNoReaction) {
  Chemistry chem;
  EXPECT_DOUBLE_EQ(chem.rate(5.0, 0.0, 0.2), 0.0);
  EXPECT_DOUBLE_EQ(chem.rate(5.0, 0.5, 0.0), 0.0);
}

TEST(Chemistry, SourceTermsConserveMass) {
  Chemistry chem;
  const auto s = chem.sources(3.0, 0.4, 0.3);
  // dY_H2 + dY_O2 + dY_H2O must vanish (2 H2 + O2 -> 2 H2O in Y space).
  EXPECT_NEAR(s.h2 + s.o2 + s.h2o, 0.0, 1e-12);
  EXPECT_LT(s.h2, 0.0);
  EXPECT_LT(s.o2, 0.0);
  EXPECT_GT(s.h2o, 0.0);
  EXPECT_GT(s.temperature, 0.0);
}

TEST(Chemistry, MinorSpeciesPeakMidReaction) {
  Chemistry chem;
  const auto at0 = chem.minor_species(0.0);
  const auto mid = chem.minor_species(0.5);
  const auto at1 = chem.minor_species(1.0);
  for (size_t s = 0; s < 3; ++s) {  // H, O, OH vanish at both ends
    EXPECT_DOUBLE_EQ(at0[s], 0.0);
    EXPECT_DOUBLE_EQ(at1[s], 0.0);
    EXPECT_GT(mid[s], 0.0);
  }
}

TEST(KernelSeeder, DeterministicSequence) {
  ChemistryParams p;
  KernelSeeder a(p), b(p);
  for (long step = 0; step < 50; ++step) {
    const auto ka = a.kernels_for_step(step);
    const auto kb = b.kernels_for_step(step);
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
      EXPECT_DOUBLE_EQ(ka[i].cx, kb[i].cx);
      EXPECT_DOUBLE_EQ(ka[i].amplitude, kb[i].amplitude);
    }
  }
}

TEST(KernelSeeder, ProducesKernelsAtExpectedRate) {
  ChemistryParams p;
  p.kernel_rate = 1.2;
  KernelSeeder seeder(p);
  size_t total = 0;
  const long steps = 500;
  for (long s = 0; s < steps; ++s) total += seeder.kernels_for_step(s).size();
  const double rate = static_cast<double>(total) / steps;
  EXPECT_NEAR(rate, 1.2, 0.25);
}

TEST(Turbulence, DivergenceFreeByConstruction) {
  SyntheticTurbulence turb;
  // Numerical divergence at random points should be ~0 (analytically 0).
  Xoshiro256 rng(3);
  const double h = 1e-5;
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 x{rng.uniform(), rng.uniform(), rng.uniform()};
    const double t = rng.uniform(0.0, 2.0);
    const double dudx =
        (turb.velocity(x + Vec3{h, 0, 0}, t).x -
         turb.velocity(x - Vec3{h, 0, 0}, t).x) / (2 * h);
    const double dvdy =
        (turb.velocity(x + Vec3{0, h, 0}, t).y -
         turb.velocity(x - Vec3{0, h, 0}, t).y) / (2 * h);
    const double dwdz =
        (turb.velocity(x + Vec3{0, 0, h}, t).z -
         turb.velocity(x - Vec3{0, 0, h}, t).z) / (2 * h);
    const double scale = turb.velocity(x, t).norm() + 1.0;
    EXPECT_NEAR((dudx + dvdy + dwdz) / scale, 0.0, 1e-4);
  }
}

TEST(Turbulence, RmsNearTarget) {
  TurbulenceParams p;
  p.rms_velocity = 1.0;
  SyntheticTurbulence turb(p);
  Xoshiro256 rng(9);
  double sum2 = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Vec3 u = turb.velocity(
        Vec3{rng.uniform(), rng.uniform(), rng.uniform()}, 0.3);
    sum2 += u.dot(u);
  }
  // Total kinetic energy ~ 3 * rms^2 per point.
  EXPECT_NEAR(std::sqrt(sum2 / (3.0 * n)), 1.0, 0.35);
}

TEST(Turbulence, RowEvaluatorMatchesPointQuery) {
  // The separable row form against the per-point reference over a full
  // 96x64x48 grid, including late times where w*t dominates the phase.
  const GlobalGrid g{{96, 64, 48}, {1.0, 0.75, 0.75}};
  SyntheticTurbulence turb;
  std::vector<double> xs;
  for (int64_t i = 0; i < g.dims[0]; ++i) xs.push_back(g.coord(0, i));
  const SyntheticTurbulence::XTable table = turb.x_table(xs);
  ASSERT_EQ(table.size, xs.size());

  std::vector<double> u(xs.size()), v(xs.size()), w(xs.size());
  double max_err = 0.0;
  for (const double t : {0.0, 0.1, 3.7, 40.0}) {
    for (int64_t k = 0; k < g.dims[2]; ++k) {
      for (int64_t j = 0; j < g.dims[1]; ++j) {
        const double y = g.coord(1, j);
        const double z = g.coord(2, k);
        turb.velocity_row(table, y, z, t, u.data(), v.data(), w.data());
        for (size_t i = 0; i < xs.size(); ++i) {
          const Vec3 ref = turb.velocity(Vec3{xs[i], y, z}, t);
          max_err = std::max({max_err, std::abs(u[i] - ref.x),
                              std::abs(v[i] - ref.y), std::abs(w[i] - ref.z)});
        }
      }
    }
  }
  EXPECT_LT(max_err, 1e-12);
}

/// The 14 solution variables plus heat release (index kNumVariables) over
/// the whole grid after `steps` steps of `Stepper` under `layout`, gathered
/// in global (x-fastest) order.
template <typename Stepper>
std::vector<std::vector<double>> fields_after(S3DParams p,
                                              std::array<int, 3> layout,
                                              int steps) {
  p.ranks_per_axis = layout;
  const Box3 whole = p.grid.bounds();
  std::vector<std::vector<double>> out(
      kNumVariables + 1,
      std::vector<double>(static_cast<size_t>(whole.num_cells()), 0.0));
  const Decomposition d(p.grid, layout);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    Stepper sim(p, comm.rank());
    sim.initialize();
    for (int s = 0; s < steps; ++s) sim.advance(comm);
    const Box3 owned = d.block(comm.rank());
    for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
      for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
        for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i) {
          const size_t n = whole.offset(i, j, k);
          for (int v = 0; v < kNumVariables; ++v) {
            out[static_cast<size_t>(v)][n] =
                sim.field(static_cast<Variable>(v)).at(i, j, k);
          }
          out[kNumVariables][n] = sim.heat_release().at(i, j, k);
        }
  });
  return out;
}

/// Empty when `got` and `want` hold the same bytes field by field, else
/// the first differing field and cell.
std::string first_byte_difference(const std::vector<std::vector<double>>& got,
                                  const std::vector<std::vector<double>>& want) {
  for (size_t v = 0; v < want.size(); ++v) {
    for (size_t n = 0; n < want[v].size(); ++n) {
      if (std::memcmp(&got[v][n], &want[v][n], sizeof(double)) != 0) {
        const std::string name =
            v < kVariableNames.size() ? std::string(kVariableNames[v])
                                      : std::string("hrr");
        return name + " cell " + std::to_string(n) + ": " +
               std::to_string(got[v][n]) + " vs " + std::to_string(want[v][n]);
      }
    }
  }
  return {};
}

TEST(S3D, VelocityBitwiseIdenticalAcrossLayouts) {
  // The prescribed velocity depends only on global coordinates and the
  // clock, so it must agree exactly (not just within rounding) across
  // rank layouts, for both integrators.
  for (const TimeIntegrator integrator :
       {TimeIntegrator::kEuler, TimeIntegrator::kHeun}) {
    S3DParams p = small_params();
    p.integrator = integrator;
    const auto reference = fields_after<S3DRank>(p, {1, 1, 1}, 3);
    for (const std::array<int, 3> layout :
         {std::array<int, 3>{2, 2, 2}, std::array<int, 3>{3, 1, 2}}) {
      const auto got = fields_after<S3DRank>(p, layout, 3);
      for (const Variable c :
           {Variable::kVelU, Variable::kVelV, Variable::kVelW}) {
        const size_t v = static_cast<size_t>(c);
        for (size_t n = 0; n < got[v].size(); ++n) {
          ASSERT_EQ(got[v][n], reference[v][n])
              << variable_name(c) << " cell " << n << " layout "
              << layout[0] << "x" << layout[1] << "x" << layout[2];
        }
      }
    }
  }
}

TEST(S3D, InitialConditionIsPhysical) {
  const S3DParams p = small_params();
  S3DRank sim(p, 0);
  sim.initialize();

  const Box3 owned = sim.decomp().block(0);
  for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k) {
    for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j) {
      for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i) {
        double y_sum = 0.0;
        for (Variable v : {Variable::kYH2, Variable::kYO2, Variable::kYH2O,
                           Variable::kYN2}) {
          const double y = sim.field(v).at(i, j, k);
          EXPECT_GE(y, 0.0);
          EXPECT_LE(y, 1.0);
          y_sum += y;
        }
        EXPECT_NEAR(y_sum, 1.0, 1e-9);
        EXPECT_GT(sim.field(Variable::kTemperature).at(i, j, k), 0.0);
      }
    }
  }
}

TEST(S3D, AdvanceKeepsFieldsFiniteAndBounded) {
  const S3DParams p = small_params();
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    for (int s = 0; s < 12; ++s) sim.advance(comm);
    EXPECT_EQ(sim.step(), 12);
    EXPECT_NEAR(sim.time(), 12 * p.dt, 1e-12);

    const Box3 owned = sim.decomp().block(comm.rank());
    for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k) {
      for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j) {
        for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i) {
          for (int v = 0; v < kNumVariables; ++v) {
            const double x = sim.field(static_cast<Variable>(v)).at(i, j, k);
            ASSERT_TRUE(std::isfinite(x))
                << kVariableNames[static_cast<size_t>(v)];
          }
          const double h2 = sim.field(Variable::kYH2).at(i, j, k);
          EXPECT_GE(h2, 0.0);
          EXPECT_LE(h2, 1.0);
          EXPECT_GE(sim.field(Variable::kTemperature).at(i, j, k), 0.0);
        }
      }
    }
  });
}

TEST(S3D, IgnitionKernelsRaiseTemperature) {
  S3DParams p = small_params();
  p.chemistry.kernel_rate = 3.0;  // make kernels near-certain
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  std::atomic<int> hot_ranks{0};
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    double max_t = 0.0;
    for (int s = 0; s < 10; ++s) {
      sim.advance(comm);
      const Box3 owned = sim.decomp().block(comm.rank());
      for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
        for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
          for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i)
            max_t = std::max(max_t,
                             sim.field(Variable::kTemperature).at(i, j, k));
    }
    if (max_t > 1.5 * p.chemistry.ambient_temperature) hot_ranks.fetch_add(1);
  });
  EXPECT_GE(hot_ranks.load(), 1);
}

TEST(S3D, DecompositionInvariance) {
  // The same grid advanced under different rank layouts must produce
  // identical fields, byte for byte, for all 14 variables and the heat
  // release (deterministic scheme + exact halo exchange).
  const S3DParams p = small_params();
  const auto reference = fields_after<S3DRank>(p, {1, 1, 1}, 5);
  for (const std::array<int, 3> layout :
       {std::array<int, 3>{2, 2, 1}, std::array<int, 3>{2, 2, 2},
        std::array<int, 3>{3, 2, 2}}) {
    EXPECT_EQ(first_byte_difference(fields_after<S3DRank>(p, layout, 5),
                                    reference),
              "")
        << "layout " << layout[0] << "x" << layout[1] << "x" << layout[2];
  }
}

TEST(S3D, HeunIntegratorIsStableAndDistinctFromEuler) {
  S3DParams euler = small_params();
  S3DParams heun = small_params();
  heun.integrator = TimeIntegrator::kHeun;

  auto run = [](const S3DParams& p) {
    std::vector<double> out;
    World world(1);
    S3DParams solo = p;
    solo.ranks_per_axis = {1, 1, 1};
    world.run([&](Comm& comm) {
      S3DRank sim(solo, 0);
      sim.initialize();
      for (int s = 0; s < 8; ++s) sim.advance(comm);
      out = sim.field(Variable::kTemperature).pack_owned();
    });
    return out;
  };
  const auto a = run(euler);
  const auto b = run(heun);
  ASSERT_EQ(a.size(), b.size());
  double max_diff = 0.0, max_val = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(std::isfinite(b[i]));
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
    max_val = std::max(max_val, std::abs(a[i]));
  }
  EXPECT_GT(max_diff, 0.0);             // genuinely different scheme
  EXPECT_LT(max_diff, 0.2 * max_val);   // but the same physics
}

TEST(S3D, HeunSelfConvergesFasterThanEuler) {
  // Self-convergence in dt on a smooth (kernel-free) problem: the gap
  // between dt and dt/2 solutions shrinks ~4x per halving for Heun vs
  // ~2x for Euler.
  auto solve = [](TimeIntegrator integ, double dt, int steps) {
    S3DParams p;
    p.grid = GlobalGrid{{16, 12, 12}, {1.0, 0.75, 0.75}};
    p.ranks_per_axis = {1, 1, 1};
    p.integrator = integ;
    p.dt = dt;
    p.chemistry.kernel_rate = 0.0;  // smooth dynamics only
    std::vector<double> out;
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(p, 0);
      sim.initialize();
      for (int s = 0; s < steps; ++s) sim.advance(comm);
      out = sim.field(Variable::kYH2O).pack_owned();
    });
    return out;
  };
  auto max_gap = [&](TimeIntegrator integ, double dt, int steps) {
    const auto coarse = solve(integ, dt, steps);
    const auto fine = solve(integ, dt / 2, steps * 2);
    double gap = 0.0;
    for (size_t i = 0; i < coarse.size(); ++i) {
      gap = std::max(gap, std::abs(coarse[i] - fine[i]));
    }
    return gap;
  };
  const double base_dt = 4.0e-3;
  const int steps = 8;
  const double euler1 = max_gap(TimeIntegrator::kEuler, base_dt, steps);
  const double euler2 = max_gap(TimeIntegrator::kEuler, base_dt / 2, steps * 2);
  const double heun1 = max_gap(TimeIntegrator::kHeun, base_dt, steps);
  const double heun2 = max_gap(TimeIntegrator::kHeun, base_dt / 2, steps * 2);

  const double euler_order = std::log2(euler1 / euler2);
  const double heun_order = std::log2(heun1 / heun2);
  EXPECT_NEAR(euler_order, 1.0, 0.5);
  EXPECT_GT(heun_order, 1.5);  // second-order in time
}

TEST(S3D, HeunDecompositionInvariance) {
  S3DParams p = small_params();
  p.integrator = TimeIntegrator::kHeun;
  const auto reference = fields_after<S3DRank>(p, {1, 1, 1}, 4);
  for (const std::array<int, 3> layout :
       {std::array<int, 3>{2, 2, 1}, std::array<int, 3>{3, 2, 2}}) {
    EXPECT_EQ(first_byte_difference(fields_after<S3DRank>(p, layout, 4),
                                    reference),
              "")
        << "layout " << layout[0] << "x" << layout[1] << "x" << layout[2];
  }
}

TEST(S3D, SolutionBytesMatchTableOneAccounting) {
  const S3DParams p = small_params();
  S3DRank sim(p, 0);
  const Box3 owned = sim.decomp().block(0);
  EXPECT_EQ(sim.solution_bytes(),
            static_cast<size_t>(owned.num_cells()) * 14 * 8);
}

TEST(S3D, HeatReleaseNonNegative) {
  const S3DParams p = small_params();
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    for (int s = 0; s < 3; ++s) sim.advance(comm);
    for (const double v : sim.heat_release().data()) EXPECT_GE(v, 0.0);
  });
}

// --- Differential test: the row-indexed step against the per-cell step ---
//
// OracleS3D is the per-cell MiniS3D step that S3DRank's row kernels
// replaced, kept verbatim (at() per cell, a bounds-checked neighbour
// lambda per field): initial condition, ignition kernels, RHS, update and
// diagnostics. Its Heun snapshot is a per-cell copy, so on one rank (no
// halo exchange) it shares no field-access code with S3DRank besides
// at(). S3DRank must reproduce it byte for byte.

constexpr int kOracleGhost = 1;
constexpr std::array<Variable, 5> kOracleTransported{
    Variable::kTemperature, Variable::kYH2, Variable::kYO2, Variable::kYH2O,
    Variable::kYN2};

class OracleS3D {
 public:
  OracleS3D(const S3DParams& params, int rank)
      : params_(params),
        decomp_(params.grid, params.ranks_per_axis),
        owned_(decomp_.block(rank)),
        chemistry_(params.chemistry),
        seeder_(params.chemistry),
        turbulence_(params.turbulence),
        heat_release_("hrr", owned_) {
    for (int v = 0; v < kNumVariables; ++v) {
      fields_.emplace_back(std::string(kVariableNames[static_cast<size_t>(v)]),
                           owned_, params.grid.bounds(), kOracleGhost);
    }
    std::vector<double> xs;
    for (int64_t i = owned_.lo[0]; i < owned_.hi[0]; ++i) {
      xs.push_back(params.grid.coord(0, i));
    }
    turbulence_x_ = turbulence_.x_table(xs);
  }

  Field& field(Variable v) { return fields_[static_cast<size_t>(v)]; }
  const Field& heat_release() const { return heat_release_; }

  void initialize() {
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
          const double core =
              0.5 * (1.0 - std::tanh((r - params_.jet_radius) /
                                     (0.25 * params_.jet_radius)));
          const double y_h2 = 0.9 * core;
          const double y_o2 = 0.232 * (1.0 - core);
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

  void advance(Comm& comm) {
    std::vector<Field*> transported;
    for (Variable v : kOracleTransported) transported.push_back(&field(v));

    const double dt = params_.dt;
    const size_t cells = static_cast<size_t>(owned_.num_cells());
    std::vector<double> rhs1(cells * transported.size());

    exchange_halos(comm, decomp_, transported, kOracleGhost);
    compute_rhs(transported, rhs1);
    if (params_.integrator == TimeIntegrator::kEuler) {
      apply_update(transported, rhs1, dt);
    } else {
      std::vector<double> rhs2(rhs1.size()), saved(rhs1.size());
      for_each_owned_cell([&](int64_t i, int64_t j, int64_t k, size_t cell) {
        for (size_t f = 0; f < transported.size(); ++f) {
          saved[f * cells + cell] = transported[f]->at(i, j, k);
        }
      });
      apply_update(transported, rhs1, dt);
      exchange_halos(comm, decomp_, transported, kOracleGhost);
      time_ += dt;
      update_velocity_and_diagnostics();
      time_ -= dt;
      compute_rhs(transported, rhs2);
      for_each_owned_cell([&](int64_t i, int64_t j, int64_t k, size_t cell) {
        for (size_t f = 0; f < transported.size(); ++f) {
          transported[f]->at(i, j, k) = saved[f * cells + cell];
        }
      });
      for (size_t c = 0; c < rhs1.size(); ++c) {
        rhs1[c] = 0.5 * (rhs1[c] + rhs2[c]);
      }
      apply_update(transported, rhs1, dt);
    }
    apply_kernels(step_);
    time_ += dt;
    ++step_;
    update_velocity_and_diagnostics();
  }

 private:
  template <typename Fn>
  void for_each_owned_cell(Fn&& fn) const {
    size_t cell = 0;
    for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k)
      for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j)
        for (int64_t i = owned_.lo[0]; i < owned_.hi[0]; ++i, ++cell)
          fn(i, j, k, cell);
  }

  void apply_kernels(long step) {
    const GlobalGrid& g = params_.grid;
    Field& T = field(Variable::kTemperature);
    for (const IgnitionKernel& kern : seeder_.kernels_for_step(step)) {
      const double cx = kern.cx * g.physical[0];
      const double cy = kern.cy * g.physical[1];
      const double cz = kern.cz * g.physical[2];
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

  void update_velocity_and_diagnostics() {
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
          u_row[i - i0] += params_.jet_velocity * core;

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

  void compute_rhs(const std::vector<Field*>& transported,
                   std::vector<double>& rhs) const {
    const GlobalGrid& g = params_.grid;
    const Box3 domain = g.bounds();
    const double dx = g.spacing(0), dy = g.spacing(1), dz = g.spacing(2);
    const double nu = params_.diffusivity;

    const Field& u = fields_[static_cast<size_t>(Variable::kVelU)];
    const Field& v = fields_[static_cast<size_t>(Variable::kVelV)];
    const Field& w = fields_[static_cast<size_t>(Variable::kVelW)];
    const Field& T = *transported[0];
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
          const std::array<double, 5> reaction{src.temperature, src.h2,
                                               src.o2, src.h2o, 0.0};

          for (size_t f = 0; f < kOracleTransported.size(); ++f) {
            const Field& phi = *transported[f];
            const double c = phi.at(i, j, k);

            auto val = [&](int64_t ii, int64_t jj, int64_t kk) {
              if (!domain.contains(ii, jj, kk)) return c;
              return phi.at(ii, jj, kk);
            };

            const double xm = val(i - 1, j, k), xp = val(i + 1, j, k);
            const double ym = val(i, j - 1, k), yp = val(i, j + 1, k);
            const double zm = val(i, j, k - 1), zp = val(i, j, k + 1);

            const double adv =
                ui * (ui > 0.0 ? (c - xm) / dx : (xp - c) / dx) +
                vj * (vj > 0.0 ? (c - ym) / dy : (yp - c) / dy) +
                wk * (wk > 0.0 ? (c - zm) / dz : (zp - c) / dz);

            const double lap = (xm - 2.0 * c + xp) / (dx * dx) +
                               (ym - 2.0 * c + yp) / (dy * dy) +
                               (zm - 2.0 * c + zp) / (dz * dz);

            rhs[f * cells + cell] = -adv + nu * lap + reaction[f];
          }
        }
      }
    }
  }

  void apply_update(const std::vector<Field*>& transported,
                    const std::vector<double>& rhs, double dt) {
    const size_t cells = static_cast<size_t>(owned_.num_cells());
    size_t cell = 0;
    for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
      for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j) {
        for (int64_t i = owned_.lo[0]; i < owned_.hi[0]; ++i, ++cell) {
          for (size_t f = 0; f < kOracleTransported.size(); ++f) {
            Field& phi = *transported[f];
            double next = phi.at(i, j, k) + dt * rhs[f * cells + cell];
            if (kOracleTransported[f] != Variable::kTemperature) {
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

  S3DParams params_;
  Decomposition decomp_;
  Box3 owned_;
  Chemistry chemistry_;
  KernelSeeder seeder_;
  SyntheticTurbulence turbulence_;
  SyntheticTurbulence::XTable turbulence_x_;
  std::vector<Field> fields_;
  Field heat_release_;
  long step_ = 0;
  double time_ = 0.0;
};

/// Checks S3DRank against the oracle under `layout`, and against the
/// oracle on one rank (which runs no halo exchange), for both integrators.
void expect_matches_oracle(S3DParams p, std::array<int, 3> layout,
                           int steps) {
  for (const TimeIntegrator integrator :
       {TimeIntegrator::kEuler, TimeIntegrator::kHeun}) {
    p.integrator = integrator;
    const auto got = fields_after<S3DRank>(p, layout, steps);
    const char* name =
        integrator == TimeIntegrator::kEuler ? "euler" : "heun";
    EXPECT_EQ(first_byte_difference(got,
                                    fields_after<OracleS3D>(p, layout, steps)),
              "")
        << name << " layout " << layout[0] << "x" << layout[1] << "x"
        << layout[2];
    EXPECT_EQ(first_byte_difference(
                  got, fields_after<OracleS3D>(p, {1, 1, 1}, steps)),
              "")
        << name << " layout " << layout[0] << "x" << layout[1] << "x"
        << layout[2] << " vs one-rank oracle";
  }
}

/// Kernel-heavy parameters on `dims`, with at least one kernel seeded in
/// the first `steps` steps.
S3DParams oracle_params(std::array<int64_t, 3> dims, int steps) {
  S3DParams p;
  p.grid = GlobalGrid{dims, {1.0, 0.75, 0.75}};
  p.chemistry.kernel_rate = 3.0;
  const KernelSeeder seeder(p.chemistry);
  size_t seeded = 0;
  for (long s = 0; s < steps; ++s) seeded += seeder.kernels_for_step(s).size();
  EXPECT_GT(seeded, 0u);
  return p;
}

TEST(S3DRowKernels, MatchPerCellOracleBytewise) {
  // Every block of every layout has rows on some domain faces; the
  // one-rank block has rows on all six.
  const S3DParams p = oracle_params({24, 16, 16}, 6);
  for (const std::array<int, 3> layout :
       {std::array<int, 3>{1, 1, 1}, std::array<int, 3>{2, 1, 1},
        std::array<int, 3>{2, 2, 1}, std::array<int, 3>{3, 2, 2}}) {
    expect_matches_oracle(p, layout, 6);
  }
}

TEST(S3DRowKernels, MatchPerCellOracleOnThinBlocks) {
  // 1-cell-thick blocks: a 1-cell x row (both x neighbours are ghosts or
  // domain boundary at once), and 1-cell-thick domains where every row
  // lies on four faces.
  expect_matches_oracle(oracle_params({3, 4, 2}, 4), {3, 2, 2}, 4);
  expect_matches_oracle(oracle_params({1, 6, 5}, 4), {1, 2, 1}, 4);
  expect_matches_oracle(oracle_params({6, 1, 1}, 4), {3, 1, 1}, 4);
  expect_matches_oracle(oracle_params({5, 4, 1}, 4), {1, 1, 1}, 4);
}

}  // namespace
}  // namespace hia
