// The three two-sided reductions the benchmark drives, each in its
// fault-prone hybrid form and its fault-tolerant form, behind one calling
// convention so a workload can run any of them the same way.
#pragma once

#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"
#include "hybrid/device.hpp"
#include "hybrid/hybrid_gehrd.hpp"
#include "la/matrix.hpp"

namespace perfbench {

using fth::index_t;
using fth::Matrix;

enum class Code { Gehrd, Sytrd, Gebrd };

const char* to_string(Code c);

/// Panel width and host crossover of every run (the Fig. 6 settings).
inline constexpr index_t kNb = 32;

/// Nominal LAPACK flop count (10/3·n³ gehrd, 4/3·n³ sytrd, 8/3·n³ gebrd).
double nominal_flops(Code c, index_t n);

/// Panel iterations the FT driver runs (to aim Moment-based faults).
index_t ft_boundaries(Code c, index_t n);

/// A seeded input: uniform random for gehrd/gebrd, symmetric for sytrd.
struct Input {
  Code code = Code::Gehrd;
  Matrix<double> a{0, 0};
  double fro = 0.0;    ///< ‖A‖_F
  double trace = 0.0;  ///< tr(A)
};
Input make_input(Code c, index_t n, std::uint64_t seed);

/// The factored output of one reduction. `a` holds the LAPACK-layout result
/// (reduced form plus reflectors); `d`/`e` the tridiagonal/bidiagonal band
/// (sytrd/gebrd); `tau` the (left) reflector scalars; `taup` gebrd's right
/// reflector scalars.
struct Output {
  Matrix<double> a{0, 0};
  std::vector<double> d, e, tau, taup;
};

/// Copy the input into `out` and size its vectors (untimed preparation).
void prepare(const Input& in, Output& out);

/// Run the fault-prone hybrid reduction on `out` (prepared from the input).
void run_hybrid(fth::hybrid::Device& dev, Code c, Output& out,
                fth::hybrid::HybridGehrdStats* stats);

/// Run the fault-tolerant reduction on `out`; `inj` plants soft errors.
void run_ft(fth::hybrid::Device& dev, Code c, Output& out, fth::fault::Injector* inj,
            fth::ft::FtReport* report, fth::hybrid::HybridGehrdStats* stats);

/// The Fig. 6 fault grid: Area {1,2,3} × Moment {Beginning, Middle, End},
/// ordered so every three consecutive cells cover each area and each moment.
inline constexpr int kGridCells = 9;
fth::fault::FaultSpec grid_fault(int cell);

}  // namespace perfbench
