// Sample statistics and the metric record every probe and workload emits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of a sample; NaN when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One reported number. `samples` and the tail percentile are informational:
/// the highest whole percentile with at least ten samples beyond it
/// (`tail_pct` < 0 when the sample has ten or fewer values).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
  int tail_pct = -1;
  double tail_value = 0.0;
};

/// Metric for a sample summarized by its median. `scale` maps a sample value
/// to the reported value (e.g. s → µs), `invert` reports scale / median
/// instead (a rate from a time), in which case the tail is the slow end.
inline Metric summarize(const std::string& name, const std::string& unit,
                        const std::vector<double>& sample, double scale = 1.0,
                        bool invert = false) {
  Metric m{name, unit, 0.0, sample.size()};
  const double med = median(sample);
  m.value = invert ? scale / med : scale * med;
  if (sample.size() > 10) {
    const double n = static_cast<double>(sample.size());
    m.tail_pct = static_cast<int>(std::floor(100.0 * (n - 10.0) / n));
    const double q = quantile(sample, m.tail_pct / 100.0);
    m.tail_value = invert ? scale / q : scale * q;
  }
  return m;
}

/// Metric that is a single value (an exact count, or a value derived from
/// other metrics).
inline Metric exact(const std::string& name, const std::string& unit, double value) {
  return Metric{name, unit, value, 1};
}

}  // namespace perfbench
