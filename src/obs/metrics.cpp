#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace smrp::obs {

std::vector<double> Histogram::default_latency_bounds() {
  return {0.1,   0.25,  0.5,   1.0,    2.5,    5.0,    10.0,   25.0,
          50.0,  100.0, 250.0, 500.0,  1000.0, 2500.0, 5000.0, 10000.0,
          30000.0, 60000.0};
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("histogram needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "histogram bounds must be strictly ascending");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::record(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double Histogram::stddev() const noexcept {
  if (count_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

double Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // The q-th sample lies in bucket i: interpolate linearly between its
    // lower and upper edges by the sample's position within the bucket.
    const double lower = i == 0 ? min_ : bounds_[i - 1];
    const double upper = i == bounds_.size() ? max_ : bounds_[i];
    const double into =
        (rank - static_cast<double>(cumulative - counts_[i])) /
        static_cast<double>(counts_[i]);
    return std::clamp(lower + into * (upper - lower), min_, max_);
  }
  return max_;
}

HistogramSummary Histogram::summary() const noexcept {
  HistogramSummary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.sum = sum_;
  s.mean = mean_;
  s.stddev = stddev();
  s.min = min_;
  s.max = max_;
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

void Histogram::merge(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument("cannot merge histograms with unequal bounds");
  }
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  // Chan et al. parallel-Welford combination: exact, order-independent.
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ = (na * mean_ + nb * other.mean_) / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  if (upper_bounds.empty()) upper_bounds = Histogram::default_latency_bounds();
  return histograms_.emplace(name, Histogram(std::move(upper_bounds)))
      .first->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].merge(c);
  for (const auto& [name, g] : other.gauges_) gauges_[name].merge(g);
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
}

}  // namespace smrp::obs
