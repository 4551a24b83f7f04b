#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/util.hpp"

namespace fth::obs {

int Histogram::bucket_of(double v) noexcept {
  if (!(v > 0.0)) return 0;  // zero, negatives and NaN land in the underflow bucket
  // Boundary table instead of floor(log10(v)): log10 is not guaranteed
  // correctly rounded, so exact decade boundaries (1e-18, 1e12, ...) could
  // land one bucket off. The boundaries are parsed with strtod, which IS
  // correctly rounded and therefore bit-identical to the literals callers
  // compare against. bounds[i] = 10^(kMinExp+i), one past each decade, so
  // the bucket index is simply the count of boundaries ≤ v: 0 = underflow,
  // kBuckets-1 = overflow (reached at 10^(kMaxExp+1), and by ±inf).
  static const std::array<double, kBuckets - 1> bounds = [] {
    std::array<double, kBuckets - 1> b{};
    for (int i = 0; i < kBuckets - 1; ++i) {
      char lit[16];
      std::snprintf(lit, sizeof lit, "1e%d", kMinExp + i);
      b[static_cast<std::size_t>(i)] = std::strtod(lit, nullptr);
    }
    return b;
  }();
  return static_cast<int>(std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

void Histogram::observe(double v) noexcept {
  std::lock_guard lock(m_);
  if (data_.count == 0) {
    data_.min = v;
    data_.max = v;
  } else {
    data_.min = std::min(data_.min, v);
    data_.max = std::max(data_.max, v);
  }
  ++data_.count;
  data_.sum += v;
  ++data_.buckets[static_cast<std::size_t>(bucket_of(v))];
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard lock(m_);
  return data_;
}

void Histogram::reset() {
  std::lock_guard lock(m_);
  data_ = Snapshot{};
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(m_);
  return counters_[name];  // value-constructed at zero on first use
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard lock(m_);
  return histograms_[name];
}

void Registry::reset() {
  std::lock_guard lock(m_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

Registry::CounterValues Registry::counter_values() const {
  std::lock_guard lock(m_);
  CounterValues out;
  for (const auto& [name, c] : counters_) out.emplace(name, c.value());
  return out;
}

Registry::CounterValues Registry::counter_delta(const CounterValues& now,
                                                const CounterValues& base) {
  CounterValues out;
  for (const auto& [name, v] : now) {
    const auto it = base.find(name);
    const std::uint64_t b = it == base.end() ? 0 : it->second;
    if (v > b) out.emplace(name, v - b);
  }
  return out;
}

void Registry::write_json(std::ostream& os) const {
  std::lock_guard lock(m_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\":" + std::to_string(c.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    const auto s = h.snapshot();
    out += '"';
    append_escaped(out, name);
    out += "\":{\"count\":" + std::to_string(s.count) + ",\"sum\":";
    append_num(out, s.sum, 17);
    out += ",\"min\":";
    append_num(out, s.count > 0 ? s.min : 0.0, 17);
    out += ",\"max\":";
    append_num(out, s.count > 0 ? s.max : 0.0, 17);
    out += ",\"min_exp\":" + std::to_string(Histogram::kMinExp) + ",\"buckets\":[";
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (b > 0) out += ',';
      out += std::to_string(s.buckets[static_cast<std::size_t>(b)]);
    }
    out += "]}";
  }
  os << out << "}}";
}

std::string Registry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

Counter& counter_metric(const std::string& name) { return Registry::global().counter(name); }

Histogram& histogram_metric(const std::string& name) {
  return Registry::global().histogram(name);
}

}  // namespace fth::obs
