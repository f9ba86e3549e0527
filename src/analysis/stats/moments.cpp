#include "analysis/stats/moments.hpp"

#include <algorithm>
#include <cmath>

#include "util/numeric.hpp"

namespace hia {

void MomentAccumulator::update(double x) {
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;

  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;

  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void MomentAccumulator::add_block(std::span<const double> values) {
  if (values.empty()) return;
  MomentAccumulator block;
  double sum = 0.0;
  for (const double x : values) {
    sum += x;
    block.min_ = std::min(block.min_, x);
    block.max_ = std::max(block.max_, x);
  }
  block.n_ = values.size();
  block.mean_ = block.min_;  // a constant block: exactly as update() gives
  if (block.min_ != block.max_ || std::isnan(sum)) {
    // Centred sums about the rounded mean mb. Their first sum s1 is mb's
    // rounding error: the mean is mb + e, e = s1 / n, and the binomial
    // shift re-centres M2..M4 on it.
    const double n = static_cast<double>(block.n_);
    const double mb = sum / n;
    double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
    for (const double x : values) {
      const double d = x - mb;
      const double d2 = d * d;
      s1 += d;
      s2 += d2;
      s3 += d2 * d;
      s4 += d2 * d2;
    }
    const double e = s1 / n;
    const double e2 = e * e;
    block.mean_ = mb + e;
    block.m2_ = s2 - e * s1;
    block.m3_ = s3 - 3.0 * e * s2 + 2.0 * e2 * s1;
    block.m4_ = s4 - 4.0 * e * s3 + 6.0 * e2 * s2 - 3.0 * e2 * e * s1;
  }
  combine(block);
}

void MomentAccumulator::combine(const MomentAccumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }

  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;

  const double new_mean = mean_ + delta * nb / n;
  const double new_m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double new_m3 = m3_ + other.m3_ +
                        delta * delta2 * na * nb * (na - nb) / (n * n) +
                        3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double new_m4 =
      m4_ + other.m4_ +
      delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  n_ += other.n_;
  mean_ = new_mean;
  m2_ = new_m2;
  m3_ = new_m3;
  m4_ = new_m4;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void MomentAccumulator::pack(double out[kPackedSize]) const {
  out[0] = static_cast<double>(n_);
  out[1] = mean_;
  out[2] = m2_;
  out[3] = m3_;
  out[4] = m4_;
  out[5] = min_;
  out[6] = max_;
}

MomentAccumulator MomentAccumulator::unpack(const double in[kPackedSize]) {
  MomentAccumulator acc;
  acc.n_ = packed_count(in[0]);
  acc.mean_ = in[1];
  acc.m2_ = in[2];
  acc.m3_ = in[3];
  acc.m4_ = in[4];
  acc.min_ = in[5];
  acc.max_ = in[6];
  return acc;
}

DescriptiveModel derive_descriptive(const MomentAccumulator& primary) {
  DescriptiveModel d;
  d.count = primary.count();
  if (d.count == 0) return d;

  const double n = static_cast<double>(primary.count());
  d.mean = primary.mean();
  d.min = primary.min();
  d.max = primary.max();
  if (d.count > 1) {
    d.variance = primary.m2() / (n - 1.0);
    d.stddev = std::sqrt(d.variance);
  }
  const double m2 = primary.m2() / n;  // biased second moment
  if (m2 > 0.0) {
    const double m3 = primary.m3() / n;
    const double m4 = primary.m4() / n;
    d.skewness = m3 / std::pow(m2, 1.5);
    d.kurtosis_excess = m4 / (m2 * m2) - 3.0;
  }
  return d;
}

}  // namespace hia
