// Tests for MiniS3D: physical sanity of the initial condition and time
// integration, intermittent kernel generation, turbulence properties (and
// the separable row evaluator against the point query), and decomposition
// invariance (the same physics regardless of rank layout).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "runtime/comm.hpp"
#include "sim/chemistry.hpp"
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

/// u, v, w over the whole grid after `steps` steps under `layout`,
/// gathered in global (x-fastest) order.
std::array<std::vector<double>, 3> velocity_after(
    S3DParams p, std::array<int, 3> layout, int steps) {
  p.ranks_per_axis = layout;
  const Box3 whole = p.grid.bounds();
  std::array<std::vector<double>, 3> out;
  for (auto& component : out) {
    component.assign(static_cast<size_t>(whole.num_cells()), 0.0);
  }
  const Decomposition d(p.grid, layout);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    for (int s = 0; s < steps; ++s) sim.advance(comm);
    const std::array<Variable, 3> vars{Variable::kVelU, Variable::kVelV,
                                       Variable::kVelW};
    const Box3 owned = d.block(comm.rank());
    for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
      for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
        for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i)
          for (size_t c = 0; c < vars.size(); ++c) {
            out[c][whole.offset(i, j, k)] = sim.field(vars[c]).at(i, j, k);
          }
  });
  return out;
}

TEST(S3D, VelocityBitwiseIdenticalAcrossLayouts) {
  // The prescribed velocity depends only on global coordinates and the
  // clock, so it must agree exactly (not just within rounding) across
  // rank layouts, for both integrators.
  for (const TimeIntegrator integrator :
       {TimeIntegrator::kEuler, TimeIntegrator::kHeun}) {
    S3DParams p = small_params();
    p.integrator = integrator;
    const auto reference = velocity_after(p, {1, 1, 1}, 3);
    for (const std::array<int, 3> layout :
         {std::array<int, 3>{2, 2, 2}, std::array<int, 3>{3, 1, 2}}) {
      const auto got = velocity_after(p, layout, 3);
      for (size_t c = 0; c < got.size(); ++c) {
        for (size_t n = 0; n < got[c].size(); ++n) {
          ASSERT_EQ(got[c][n], reference[c][n])
              << "component " << c << " cell " << n << " layout "
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
  // identical fields (deterministic scheme + exact halo exchange).
  S3DParams p1 = small_params();
  p1.ranks_per_axis = {1, 1, 1};
  S3DParams p2 = small_params();
  p2.ranks_per_axis = {2, 2, 2};

  // Single-rank reference.
  std::vector<double> reference;
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(p1, 0);
      sim.initialize();
      for (int s = 0; s < 5; ++s) sim.advance(comm);
      reference = sim.field(Variable::kTemperature).pack_owned();
    });
  }

  Decomposition d2(p2.grid, p2.ranks_per_axis);
  World world(d2.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p2, comm.rank());
    sim.initialize();
    for (int s = 0; s < 5; ++s) sim.advance(comm);

    // Compare owned values against the single-rank reference.
    const Box3 owned = d2.block(comm.rank());
    const Box3 whole = p1.grid.bounds();
    for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
      for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
        for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i) {
          const double ref = reference[whole.offset(i, j, k)];
          ASSERT_NEAR(sim.field(Variable::kTemperature).at(i, j, k), ref,
                      1e-11)
              << "(" << i << "," << j << "," << k << ")";
        }
  });
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
  S3DParams solo = p;
  solo.ranks_per_axis = {1, 1, 1};

  std::vector<double> reference;
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(solo, 0);
      sim.initialize();
      for (int s = 0; s < 4; ++s) sim.advance(comm);
      reference = sim.field(Variable::kTemperature).pack_owned();
    });
  }
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    for (int s = 0; s < 4; ++s) sim.advance(comm);
    const Box3 owned = d.block(comm.rank());
    const Box3 whole = p.grid.bounds();
    for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
      for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
        for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i)
          ASSERT_NEAR(sim.field(Variable::kTemperature).at(i, j, k),
                      reference[whole.offset(i, j, k)], 1e-11);
  });
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

}  // namespace
}  // namespace hia
