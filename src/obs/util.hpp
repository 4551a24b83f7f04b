// Helpers shared by the fth::obs writers (internal to src/obs): the one JSON
// string/number writer every emitted document uses, and the interval
// union/intersection the profiler and the DAG's what-if replay both measure
// overlap with.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace fth::obs {

/// Append `s` as the body of a JSON string (quotes, backslashes and control
/// characters escaped).
inline void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
}

/// Append `v` with `digits` significant digits (%.9g / %.17g); JSON has no
/// NaN or Inf, so non-finite values are written as null.
inline void append_num(std::string& out, double v, int digits = 9) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  out += buf;
}

struct Interval {
  double b, e;
};

/// Sort + merge in place; returns the total covered length.
inline double merge_union(std::vector<Interval>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) { return a.b < b.b; });
  std::size_t out = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].b <= v[out].e) {
      v[out].e = std::max(v[out].e, v[i].e);
    } else {
      v[++out] = v[i];
    }
  }
  v.resize(out + 1);
  double len = 0.0;
  for (const Interval& iv : v) len += iv.e - iv.b;
  return len;
}

/// Overlap length of two already-merged interval lists.
inline double intersect_len(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  double len = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].b, b[j].b);
    const double hi = std::min(a[i].e, b[j].e);
    if (hi > lo) len += hi - lo;
    if (a[i].e < b[j].e) ++i;
    else ++j;
  }
  return len;
}

}  // namespace fth::obs
