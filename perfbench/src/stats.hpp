// Small helpers shared by the benchmark: order statistics, the result
// digest, and the metric table the report prints.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// q-quantile by linear interpolation between closest ranks; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// quantile() in O(n), reordering `values` in place; 0 when empty.
inline double select_quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), nth, values.end());
  const double low = *nth;
  const double high =
      nth + 1 == values.end() ? low : *std::min_element(nth + 1, values.end());
  return low + (pos - static_cast<double>(lo)) * (high - low);
}

/// 64-bit FNV-1a over raw bytes: the allocation digest that must repeat
/// across repetitions and runs of one seed.
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void add(const std::vector<T>& values) {
    const std::uint64_t n = values.size();
    add_bytes(&n, sizeof n);
    if (!values.empty()) add_bytes(values.data(), values.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench
