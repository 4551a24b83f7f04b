// How the device team kernels (hybrid::par, dev_blas.cpp) cut an output
// into chunks.
//
// Each chunk of a team kernel writes a disjoint block of the output. Where
// the blocks run along a unit-stride output (row blocks of a gemv or symv
// y), two chunks that share a cache line of it bounce that line between
// cores on every pass over it: the panel gemv sweeps y once per column of
// A. So the chunk boundaries of such a kernel sit on 64-byte boundaries of
// the output's memory, not on index multiples: the first chunk is short
// and every later one starts on a cache line. Where chunks start never
// changes a result (each kernel's contract in dev_blas.cpp).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"

namespace fth::hybrid::detail {

/// Doubles in a 64-byte cache line.
inline constexpr index_t kLineDoubles = 64 / static_cast<index_t>(sizeof(double));

/// Position of `p` inside its 64-byte cache line, in doubles (0: `p`
/// starts a line).
inline index_t line_phase(const double* p) noexcept {
  return static_cast<index_t>(reinterpret_cast<std::uintptr_t>(p) % 64 / sizeof(double));
}

inline index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

/// [0, n) cut into about `parts` blocks for an output whose index 0 sits
/// `phase` elements (0 ≤ phase < align) past a multiple of `align`: every
/// block after the first starts where phase + index is a multiple of
/// `align`. The first block is `phase` elements short, and there are at
/// most parts + 1 blocks.
struct Blocks {
  Blocks(index_t n, index_t parts, index_t align, index_t phase = 0)
      : n(n), phase(n == 0 ? 0 : phase),
        step(std::max<index_t>(align, ceil_div(ceil_div(n, parts), align) * align)),
        count(ceil_div(n + this->phase, step)) {}
  [[nodiscard]] index_t begin(index_t c) const { return c == 0 ? 0 : c * step - phase; }
  [[nodiscard]] index_t size(index_t c) const {
    return std::min(n, (c + 1) * step - phase) - begin(c);
  }
  index_t n;
  index_t phase;
  index_t step;
  index_t count;
};

}  // namespace fth::hybrid::detail
