#include "reductions.hpp"

#include "ft/ft_gebrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "hybrid/hybrid_gebrd.hpp"
#include "hybrid/hybrid_sytrd.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"

namespace perfbench {

using fth::VectorView;

namespace {

VectorView<double> vec(std::vector<double>& v) {
  return VectorView<double>(v.data(), static_cast<index_t>(v.size()));
}

}  // namespace

const char* to_string(Code c) {
  switch (c) {
    case Code::Gehrd: return "gehrd";
    case Code::Sytrd: return "sytrd";
    case Code::Gebrd: return "gebrd";
  }
  return "?";
}

double nominal_flops(Code c, index_t n) {
  const double n3 = static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n);
  switch (c) {
    case Code::Gehrd: return 10.0 / 3.0 * n3;
    case Code::Sytrd: return 4.0 / 3.0 * n3;
    case Code::Gebrd: return 8.0 / 3.0 * n3;
  }
  return 0.0;
}

index_t ft_boundaries(Code c, index_t n) {
  switch (c) {
    case Code::Gehrd: return fth::ft::ft_total_boundaries(n, kNb);
    case Code::Sytrd: return fth::ft::ft_sytrd_boundaries(n, kNb);
    case Code::Gebrd: return fth::ft::ft_gebrd_boundaries(n, kNb);
  }
  return 0;
}

Input make_input(Code c, index_t n, std::uint64_t seed) {
  Input in;
  in.code = c;
  in.a = c == Code::Sytrd ? fth::random_symmetric_matrix(n, seed) : fth::random_matrix(n, n, seed);
  in.fro = fth::norm_fro(in.a.cview());
  for (index_t i = 0; i < n; ++i) in.trace += in.a(i, i);
  return in;
}

void prepare(const Input& in, Output& out) {
  const index_t n = in.a.rows();
  const auto len = [](index_t k) { return static_cast<std::size_t>(std::max<index_t>(k, 0)); };
  if (out.a.rows() != n) out.a = Matrix<double>(n, n);
  fth::copy(in.a.cview(), out.a.view());
  out.tau.assign(len(in.code == Code::Gebrd ? n : n - 1), 0.0);
  out.d.assign(in.code == Code::Gehrd ? 0 : len(n), 0.0);
  out.e.assign(in.code == Code::Gehrd ? 0 : len(n - 1), 0.0);
  out.taup.assign(in.code == Code::Gebrd ? len(n - 1) : 0, 0.0);
}

void run_hybrid(fth::hybrid::Device& dev, Code c, Output& out,
                fth::hybrid::HybridGehrdStats* stats) {
  namespace hy = fth::hybrid;
  switch (c) {
    case Code::Gehrd:
      hy::hybrid_gehrd(dev, out.a.view(), vec(out.tau), {.nb = kNb, .nx = kNb}, stats);
      return;
    case Code::Sytrd:
      hy::hybrid_sytrd(dev, out.a.view(), vec(out.d), vec(out.e), vec(out.tau),
                       {.nb = kNb, .nx = kNb}, stats);
      return;
    case Code::Gebrd:
      hy::hybrid_gebrd(dev, out.a.view(), vec(out.d), vec(out.e), vec(out.tau), vec(out.taup),
                       {.nb = kNb, .nx = kNb}, stats);
      return;
  }
}

void run_ft(fth::hybrid::Device& dev, Code c, Output& out, fth::fault::Injector* inj,
            fth::ft::FtReport* report, fth::hybrid::HybridGehrdStats* stats) {
  namespace ft = fth::ft;
  switch (c) {
    case Code::Gehrd:
      ft::ft_gehrd(dev, out.a.view(), vec(out.tau), {.nb = kNb}, inj, report, stats);
      return;
    case Code::Sytrd:
      ft::ft_sytrd(dev, out.a.view(), vec(out.d), vec(out.e), vec(out.tau), {.nb = kNb}, inj,
                   report, stats);
      return;
    case Code::Gebrd:
      ft::ft_gebrd(dev, out.a.view(), vec(out.d), vec(out.e), vec(out.tau), vec(out.taup),
                   {.nb = kNb}, inj, report, stats);
      return;
  }
}

fth::fault::FaultSpec grid_fault(int cell) {
  using fth::fault::Area;
  using fth::fault::Moment;
  static constexpr Moment kMoments[3] = {Moment::Beginning, Moment::Middle, Moment::End};
  const int c = cell % kGridCells;
  fth::fault::FaultSpec spec;  // AddDelta, relative magnitude 100 (the paper's model)
  spec.area = static_cast<Area>(1 + c % 3);
  spec.moment = kMoments[(c % 3 + c / 3) % 3];
  return spec;
}

}  // namespace perfbench
