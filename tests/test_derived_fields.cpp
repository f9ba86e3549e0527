// Tests for derived combustion diagnostics (gradients, vorticity, mixture
// fraction, scalar dissipation) and the co-hosted helper core.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "core/cohosted.hpp"
#include "sim/analytic_fields.hpp"
#include "sim/derived_fields.hpp"
#include "sim/halo.hpp"
#include "sim/s3d.hpp"

namespace hia {
namespace {

GlobalGrid test_grid() { return GlobalGrid{{16, 16, 16}, {1.0, 1.0, 1.0}}; }

Field make_field(const GlobalGrid& grid, const char* name,
                 const std::function<double(const Vec3&)>& fn) {
  Field f(name, grid.bounds(), grid.bounds(), 1);
  fill_from_function(f, grid, fn);
  return f;
}

TEST(GradientMagnitude, ExactOnLinearField) {
  const GlobalGrid grid = test_grid();
  const Field f = make_field(grid, "f", [](const Vec3& x) {
    return 3.0 * x.x - 4.0 * x.y + 12.0 * x.z;
  });
  const Field g = gradient_magnitude(grid, f);
  // |(3, -4, 12)| = 13, exact for central AND one-sided differences.
  for (const double v : g.data()) EXPECT_NEAR(v, 13.0, 1e-10);
}

TEST(GradientMagnitude, ZeroOnConstantField) {
  const GlobalGrid grid = test_grid();
  const Field f = make_field(grid, "f", [](const Vec3&) { return 7.0; });
  const Field g = gradient_magnitude(grid, f);
  for (const double v : g.data()) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(VorticityMagnitude, RigidRotation) {
  // u = (-y, x, 0) about the z axis: vorticity = (0, 0, 2), |w| = 2.
  const GlobalGrid grid = test_grid();
  const Field u = make_field(grid, "u", [](const Vec3& x) { return -x.y; });
  const Field v = make_field(grid, "v", [](const Vec3& x) { return x.x; });
  const Field w = make_field(grid, "w", [](const Vec3&) { return 0.0; });
  const Field vort = vorticity_magnitude(grid, u, v, w);
  for (const double x : vort.data()) EXPECT_NEAR(x, 2.0, 1e-10);
}

TEST(VorticityMagnitude, IrrotationalShearFreeFlow) {
  // Uniform translation has zero vorticity.
  const GlobalGrid grid = test_grid();
  const Field u = make_field(grid, "u", [](const Vec3&) { return 1.5; });
  const Field v = make_field(grid, "v", [](const Vec3&) { return -0.5; });
  const Field w = make_field(grid, "w", [](const Vec3&) { return 2.0; });
  const Field vort = vorticity_magnitude(grid, u, v, w);
  for (const double x : vort.data()) {
    EXPECT_NEAR(x, 0.0, 1e-12);
  }
}

TEST(MixtureFraction, BoundsAndStreamValues) {
  const GlobalGrid grid = test_grid();
  // Pure fuel stream: Y_H2 = 0.9 -> Z = 1; pure oxidizer: Z = 0.
  Field h2 = make_field(grid, "Y_H2", [](const Vec3& x) {
    return x.x < 0.5 ? 0.9 : 0.0;
  });
  Field h2o = make_field(grid, "Y_H2O", [](const Vec3&) { return 0.0; });
  const Field z = mixture_fraction(h2, h2o);
  EXPECT_DOUBLE_EQ(z.at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(z.at(15, 0, 0), 0.0);

  // Products contribute their hydrogen content: Y_H2O = 0.9 alone gives
  // Z = (2/18)*0.9/0.9 = 1/9.
  h2.fill(0.0);
  h2o.fill(0.9);
  const Field z2 = mixture_fraction(h2, h2o);
  EXPECT_NEAR(z2.at(4, 4, 4), 1.0 / 9.0, 1e-12);
}

TEST(MixtureFraction, ConservedUnderReaction) {
  // The chemistry converts H2 to H2O conserving element H: Z computed
  // before and after several reactive steps (no kernels, so no external
  // enthalpy/H injection) must stay equal pointwise up to transport.
  S3DParams p;
  p.grid = GlobalGrid{{12, 10, 10}, {1.0, 0.8, 0.8}};
  p.ranks_per_axis = {1, 1, 1};
  p.chemistry.kernel_rate = 0.0;
  p.jet_velocity = 0.0;             // pure reaction + diffusion
  p.turbulence.rms_velocity = 0.0;
  p.diffusivity = 0.0;              // freeze transport: reaction only
  World world(1);
  world.run([&](Comm& comm) {
    S3DRank sim(p, 0);
    sim.initialize();
    // Ignite everything so the reaction actually runs.
    Field& t = sim.field(Variable::kTemperature);
    for (double& v : t.data()) v = 4.0;
    const Field z0 = mixture_fraction(sim.field(Variable::kYH2),
                                      sim.field(Variable::kYH2O));
    for (int s = 0; s < 5; ++s) sim.advance(comm);
    const Field z1 = mixture_fraction(sim.field(Variable::kYH2),
                                      sim.field(Variable::kYH2O));
    const Box3& box = z0.owned();
    for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
      for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
        for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
          ASSERT_NEAR(z1.at(i, j, k), z0.at(i, j, k), 1e-9);
  });
}

TEST(ScalarDissipation, QuadraticInGradient) {
  const GlobalGrid grid = test_grid();
  const Field z = make_field(grid, "Z", [](const Vec3& x) { return x.x; });
  const double d = 0.25;
  const Field chi = scalar_dissipation(grid, z, d);
  // |∇Z| = 1 -> chi = 2 * 0.25 * 1 = 0.5 everywhere.
  for (const double v : chi.data()) EXPECT_NEAR(v, 0.5, 1e-10);
  EXPECT_THROW(scalar_dissipation(grid, z, -1.0), Error);
}

TEST(DerivedFields, VorticityOfSimulationIsFiniteAndStructured) {
  S3DParams p;
  p.grid = GlobalGrid{{20, 14, 14}, {1.0, 0.7, 0.7}};
  p.ranks_per_axis = {2, 1, 1};
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    sim.advance(comm);
    std::vector<Field*> vel{&sim.field(Variable::kVelU),
                            &sim.field(Variable::kVelV),
                            &sim.field(Variable::kVelW)};
    exchange_halos(comm, sim.decomp(), vel, 1);
    const Field vort = vorticity_magnitude(
        p.grid, *vel[0], *vel[1], *vel[2]);
    double max = 0.0;
    for (const double v : vort.data()) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GE(v, 0.0);
      max = std::max(max, v);
    }
    // Turbulence + jet shear: vorticity is genuinely present.
    EXPECT_GT(comm.allreduce_max(max), 0.1);
  });
}

// ------------------------------------------------------ co-hosted helper --

// The per-cell triple loops the row-iteration kernels replaced, kept as
// the oracle: the row form must reproduce them byte for byte.
namespace oracle {

double derivative(const GlobalGrid& grid, const Field& f, int64_t i,
                  int64_t j, int64_t k, int axis) {
  int64_t lo[3] = {i, j, k};
  int64_t hi[3] = {i, j, k};
  const Box3& st = f.storage();
  hi[axis] = std::min(hi[axis] + 1, st.hi[axis] - 1);
  lo[axis] = std::max(lo[axis] - 1, st.lo[axis]);
  const double span =
      static_cast<double>(hi[axis] - lo[axis]) * grid.spacing(axis);
  if (span == 0.0) return 0.0;
  return (f.at(hi[0], hi[1], hi[2]) - f.at(lo[0], lo[1], lo[2])) / span;
}

Field gradient_magnitude(const GlobalGrid& grid, const Field& f) {
  Field out("grad_" + f.name(), f.owned());
  const Box3& box = f.owned();
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i) {
        const double gx = derivative(grid, f, i, j, k, 0);
        const double gy = derivative(grid, f, i, j, k, 1);
        const double gz = derivative(grid, f, i, j, k, 2);
        out.at(i, j, k) = std::sqrt(gx * gx + gy * gy + gz * gz);
      }
    }
  }
  return out;
}

Field vorticity_magnitude(const GlobalGrid& grid, const Field& u,
                          const Field& v, const Field& w) {
  Field out("vorticity", u.owned());
  const Box3& box = u.owned();
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i) {
        const double wy = derivative(grid, w, i, j, k, 1);
        const double vz = derivative(grid, v, i, j, k, 2);
        const double uz = derivative(grid, u, i, j, k, 2);
        const double wx = derivative(grid, w, i, j, k, 0);
        const double vx = derivative(grid, v, i, j, k, 0);
        const double uy = derivative(grid, u, i, j, k, 1);
        const double ox = wy - vz;
        const double oy = uz - wx;
        const double oz = vx - uy;
        out.at(i, j, k) = std::sqrt(ox * ox + oy * oy + oz * oz);
      }
    }
  }
  return out;
}

Field mixture_fraction(const Field& y_h2, const Field& y_h2o) {
  Field out("Z", y_h2.owned());
  const Box3& box = y_h2.owned();
  constexpr double kFuelH2 = 0.9;
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i) {
        const double zh =
            y_h2.at(i, j, k) + (2.0 / 18.0) * y_h2o.at(i, j, k);
        out.at(i, j, k) = std::clamp(zh / kFuelH2, 0.0, 1.0);
      }
    }
  }
  return out;
}

Field scalar_dissipation(const GlobalGrid& grid, const Field& z,
                         double diffusivity) {
  Field out("chi", z.owned());
  const Field grad = oracle::gradient_magnitude(grid, z);
  const Box3& box = z.owned();
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i) {
        const double g = grad.at(i, j, k);
        out.at(i, j, k) = 2.0 * diffusivity * g * g;
      }
    }
  }
  return out;
}

}  // namespace oracle

bool same_bytes(const Field& a, const Field& b) {
  return a.owned() == b.owned() && a.data().size() == b.data().size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

TEST(DerivedFields, RowKernelsAreBitwiseIdenticalToPerCellOracle) {
  // Ghosted blocks with a non-zero owned origin: one interior (central
  // differences everywhere), one on the domain's low-x and high-y faces
  // (one-sided differences there).
  const GlobalGrid grid{{20, 14, 12}, {1.0, 0.7, 0.6}};
  for (const Box3& owned : {Box3{{5, 3, 2}, {17, 11, 9}},
                            Box3{{0, 6, 4}, {9, 14, 10}}}) {
    SCOPED_TRACE(owned.describe());
    auto noise = [&](const char* name, uint64_t seed) {
      Field f(name, owned, grid.bounds(), 1);
      fill_noise(f, seed);
      return f;
    };
    const Field u = noise("u", 1), v = noise("v", 2), w = noise("w", 3);
    EXPECT_TRUE(same_bytes(gradient_magnitude(grid, u),
                           oracle::gradient_magnitude(grid, u)));
    EXPECT_TRUE(same_bytes(vorticity_magnitude(grid, u, v, w),
                           oracle::vorticity_magnitude(grid, u, v, w)));
    EXPECT_TRUE(same_bytes(mixture_fraction(u, v),
                           oracle::mixture_fraction(u, v)));
    EXPECT_TRUE(same_bytes(scalar_dissipation(grid, w, 3e-4),
                           oracle::scalar_dissipation(grid, w, 3e-4)));
  }
}

TEST(CoHostedHelper, ExecutesInFifoOrder) {
  CoHostedHelper helper;
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 8; ++i) {
    helper.submit([&, i] {
      std::lock_guard lock(m);
      order.push_back(i);
    });
  }
  helper.drain();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_EQ(helper.completed(), 8u);
}

TEST(CoHostedHelper, SubmitReturnsBeforeWorkCompletes) {
  CoHostedHelper helper;
  std::atomic<bool> done{false};
  Stopwatch watch;
  helper.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.store(true);
  });
  const double handoff = watch.seconds();
  EXPECT_LT(handoff, 0.02);       // the critical path paid only the enqueue
  EXPECT_FALSE(done.load());      // work still running off-path
  helper.drain();
  EXPECT_TRUE(done.load());
  EXPECT_GE(helper.busy_seconds(), 0.04);
}

TEST(CoHostedHelper, DrainOnEmptyQueueReturns) {
  CoHostedHelper helper;
  helper.drain();
  EXPECT_EQ(helper.completed(), 0u);
}

TEST(CoHostedHelper, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    CoHostedHelper helper;
    for (int i = 0; i < 5; ++i) {
      helper.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        count.fetch_add(1);
      });
    }
  }  // destructor must complete everything
  EXPECT_EQ(count.load(), 5);
}

TEST(CoHostedHelper, OffloadsAnalysisFromCriticalPath) {
  // The §VI scenario: per-rank helpers run a (slow) analysis stage while
  // the "simulation" proceeds; the critical path pays only hand-offs.
  constexpr int kSteps = 6;
  constexpr auto kAnalysisCost = std::chrono::milliseconds(20);

  CoHostedHelper helper;
  std::atomic<int> analyses_done{0};
  Stopwatch watch;
  for (int s = 0; s < kSteps; ++s) {
    // "simulation work"
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    helper.submit([&] {
      std::this_thread::sleep_for(kAnalysisCost);
      analyses_done.fetch_add(1);
    });
  }
  const double critical_path = watch.seconds();
  helper.drain();

  EXPECT_EQ(analyses_done.load(), kSteps);
  // Synchronous execution would cost >= 6 * (5 + 20) ms on the critical
  // path; with the helper it is ~6 * 5 ms (plus scheduling noise; the
  // single-core CI host timeshares, so allow generous slack while still
  // distinguishing the two regimes).
  EXPECT_LT(critical_path, 0.12);
}

}  // namespace
}  // namespace hia
