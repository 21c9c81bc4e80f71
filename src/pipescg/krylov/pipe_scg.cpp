#include "pipescg/krylov/pipe_scg.hpp"

#include <utility>

#include "pipescg/krylov/sstep_driver.hpp"

namespace pipescg::krylov {
namespace {

// PIPE-sCG (paper Alg. 5) as a method of the shared s-step driver.  Basis
// S[j] = p_j(A) r, j = 0..s, and extension E = degrees s+1..2s; towers
// t[j] = A p_j(A) P, j = 0..s (t[0] = A P), carried by recurrence so the
// next basis exists before any new SPMV and the s SPMVs extending it to
// degree 2s overlap the reduction.
struct PipeScgMethod {
  static constexpr bool kPreconditioned = false;
  static constexpr bool kBlockingDots = false;
  static constexpr bool kScheduledReplacement = true;
  static constexpr bool kVerifiedAcceptance = true;
  static constexpr bool kSaveAfterScalarWork = false;

  PipeScgMethod(Engine& engine, const ShiftedBasis& basis)
      : basis(basis),
        su(static_cast<std::size_t>(basis.s())),
        s(engine.new_block(su + 1)),
        s_next(engine.new_block(su + 1)),
        e(engine.new_block(su)),
        e_next(engine.new_block(su)),
        p(engine.new_block(su)),
        p_next(engine.new_block(su)),
        t(sstep::new_towers(engine, su)),
        t_next(sstep::new_towers(engine, su)) {}

  void start(Engine& engine, const Vec& b, const Vec& x, Vec& scratch) {
    engine.apply_op(x, scratch);
    engine.waxpy(s[0], -1.0, scratch, b);  // r_0 = b - A x_0
    extend_chain(engine, basis, ChainView{&s, &e}, 1, su, scratch);
  }

  void dot_pairs(const sstep::DotLayout& layout,
                 std::vector<DotPair>& out) const {
    sstep::build_dot_pairs(layout, s, s, t[0], out);
  }

  // Extend the basis to degree 2s behind the reduction (Alg. 5 line 28).
  void overlap(Engine& engine, Vec& scratch) {
    extend_chain(engine, basis, ChainView{&s, &e}, su + 1, su, scratch);
  }

  void update(Engine& engine, const Vec& b, Vec& x,
              const sstep::ScalarWork::Result& sw, bool first, bool replace,
              Vec& scratch) {
    // P = S[0..s-1] + P_prev B (line 17); towers t[j] = seed + t_prev[j] B
    // (lines 14-20), seeded with the p_j * x * p_c expansion over S and E.
    sstep::copy_block(engine, s, p_next, su);
    if (!first) engine.block_maxpy(p_next, p, sw.b);
    for (std::size_t j = 0; j <= su; ++j) {
      for (std::size_t c = 0; c < su; ++c)
        combine_chain(engine,
                      basis.seed(static_cast<int>(j), static_cast<int>(c)),
                      ChainView{&s, &e}, t_next[j][c]);
      if (!first) engine.block_maxpy(t_next[j], t[j], sw.b);
    }
    // x update, then the basis recurrence (lines 21-25).
    engine.block_axpy(x, p_next, sw.alpha);
    if (replace) {
      engine.apply_op(x, scratch);
      engine.waxpy(s_next[0], -1.0, scratch, b);
      extend_chain(engine, basis, ChainView{&s_next, &e_next}, 1, su,
                   scratch);
    } else {
      for (std::size_t j = 0; j <= su; ++j)
        engine.block_combine(s_next[j], s[j], t_next[j], sw.alpha);
    }
    std::swap(s, s_next);
    std::swap(e, e_next);
    std::swap(p, p_next);
    std::swap(t, t_next);
  }

  const ShiftedBasis& basis;
  std::size_t su;
  VecBlock s, s_next, e, e_next, p, p_next;
  std::vector<VecBlock> t, t_next;
};

}  // namespace

SolveStats PipeScgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                                const SolverOptions& opts) const {
  return sstep::drive<PipeScgMethod>(engine, b, x, opts, opts.s, name());
}

}  // namespace pipescg::krylov
