#include "analysis/stats/correlation.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

void CovarianceAccumulator::update(double x, double y) {
  ++n_;
  const double n = static_cast<double>(n_);
  const double dx = x - mean_x_;
  const double dy = y - mean_y_;
  mean_x_ += dx / n;
  mean_y_ += dy / n;
  // Note: c2 uses the *updated* mean_y (West's formulation keeps the
  // update exact in exact arithmetic and stable in floating point).
  m2x_ += dx * (x - mean_x_);
  m2y_ += dy * (y - mean_y_);
  c2_ += dx * (y - mean_y_);
}

void CovarianceAccumulator::combine(const CovarianceAccumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double dx = other.mean_x_ - mean_x_;
  const double dy = other.mean_y_ - mean_y_;

  m2x_ += other.m2x_ + dx * dx * na * nb / n;
  m2y_ += other.m2y_ + dy * dy * na * nb / n;
  c2_ += other.c2_ + dx * dy * na * nb / n;
  mean_x_ += dx * nb / n;
  mean_y_ += dy * nb / n;
  n_ += other.n_;
}

void CovarianceAccumulator::pack(double out[kPackedSize]) const {
  out[0] = static_cast<double>(n_);
  out[1] = mean_x_;
  out[2] = mean_y_;
  out[3] = m2x_;
  out[4] = m2y_;
  out[5] = c2_;
}

CovarianceAccumulator CovarianceAccumulator::unpack(
    const double in[kPackedSize]) {
  CovarianceAccumulator acc;
  acc.n_ = packed_count(in[0]);
  acc.mean_x_ = in[1];
  acc.mean_y_ = in[2];
  acc.m2x_ = in[3];
  acc.m2y_ = in[4];
  acc.c2_ = in[5];
  return acc;
}

CorrelationModel derive_correlation(const CovarianceAccumulator& primary) {
  CorrelationModel m;
  m.count = primary.count();
  if (m.count < 2) return m;
  const double n = static_cast<double>(primary.count());
  m.covariance = primary.c2() / (n - 1.0);
  const double denom = std::sqrt(primary.m2_x() * primary.m2_y());
  if (denom > 0.0) m.pearson_r = primary.c2() / denom;
  if (primary.m2_x() > 0.0) {
    m.slope = primary.c2() / primary.m2_x();
    m.intercept = primary.mean_y() - m.slope * primary.mean_x();
  }
  return m;
}

CovarianceAccumulator correlation_learn(std::span<const double> x,
                                        std::span<const double> y) {
  HIA_REQUIRE(x.size() == y.size(), "paired observations required");
  CovarianceAccumulator acc;
  for (size_t i = 0; i < x.size(); ++i) acc.update(x[i], y[i]);
  return acc;
}

CorrelationModel autocorrelation(std::span<const double> series, size_t lag) {
  HIA_REQUIRE(lag < series.size(), "lag must be shorter than the series");
  CovarianceAccumulator acc;
  for (size_t i = 0; i + lag < series.size(); ++i) {
    acc.update(series[i], series[i + lag]);
  }
  return derive_correlation(acc);
}

}  // namespace hia
