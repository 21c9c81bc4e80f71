#include "pipescg/krylov/scg_sspmv.hpp"

#include <utility>

#include "pipescg/krylov/sstep_driver.hpp"

namespace pipescg::krylov {
namespace sstep {

ScgSspmvMethod::ScgSspmvMethod(Engine& engine, const ShiftedBasis& basis)
    : basis(&basis),
      s(engine.new_block(static_cast<std::size_t>(basis.s()) + 1)),
      s_next(engine.new_block(static_cast<std::size_t>(basis.s()) + 1)),
      p(engine.new_block(static_cast<std::size_t>(basis.s()))),
      p_next(engine.new_block(static_cast<std::size_t>(basis.s()))),
      ap(engine.new_block(static_cast<std::size_t>(basis.s()))),
      ap_next(engine.new_block(static_cast<std::size_t>(basis.s()))) {}

void ScgSspmvMethod::start(Engine& engine, const Vec& b, const Vec& x,
                           Vec& scratch) {
  engine.apply_op(x, scratch);
  engine.waxpy(s[0], -1.0, scratch, b);
  extend_chain(engine, *basis, ChainView{&s}, 1, p.size(), scratch);
}

void ScgSspmvMethod::update(Engine& engine, const Vec& b, Vec& x,
                            const ScalarWork::Result& sw, bool first,
                            bool replace, Vec& scratch) {
  const std::size_t su = p.size();
  // Direction block and AP recurrence (paper Alg. 4 lines 9-11).  The AP
  // seed column c is A p_c(A) r, the x * p_c expansion over the basis.
  copy_block(engine, s, p_next, su);
  for (std::size_t c = 0; c < su; ++c)
    combine_chain(engine, basis->seed(0, static_cast<int>(c)), ChainView{&s},
                  ap_next[c]);
  if (!first) {
    engine.block_maxpy(p_next, p, sw.b);
    engine.block_maxpy(ap_next, ap, sw.b);
  }
  // x and the recurred residual (lines 12-13), re-anchored to the truth on
  // a replacement; then the s SPMVs of the basis rebuild (lines 14-15).
  engine.block_axpy(x, p_next, sw.alpha);
  engine.block_combine(s_next[0], s[0], ap_next, sw.alpha);
  if (replace) {
    engine.apply_op(x, scratch);
    engine.waxpy(s_next[0], -1.0, scratch, b);
  }
  extend_chain(engine, *basis, ChainView{&s_next}, 1, su, scratch);
  std::swap(s, s_next);
  std::swap(p, p_next);
  std::swap(ap, ap_next);
}

}  // namespace sstep

SolveStats ScgSspmvSolver::solve(Engine& engine, const Vec& b, Vec& x,
                                 const SolverOptions& opts) const {
  return sstep::drive<sstep::ScgSspmvMethod>(engine, b, x, opts, opts.s,
                                             name());
}

}  // namespace pipescg::krylov
