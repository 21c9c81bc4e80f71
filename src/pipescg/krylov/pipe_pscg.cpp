#include "pipescg/krylov/pipe_pscg.hpp"

#include <utility>

#include "pipescg/krylov/sstep_driver.hpp"

namespace pipescg::krylov {
namespace sstep {
namespace {

// PIPE-PsCG (paper Alg. 6 + 7) as a method of the shared s-step driver.
// u-side basis v_j = p_j(M^{-1}A) u and r-side twin w_j = M v_j, j = 0..s,
// plus extensions to degree 2s; direction block P (u-side) and towers
// tu[j] = (M^{-1}A) p_j(M^{-1}A) P, tr[j] = A p_j(M^{-1}A) P, j = 0..s.
// The basis recurrence needs no PC or SPMV, so the dot batch posts at once
// and the s PCs + s SPMVs extending the basis overlap the reduction.
struct PipePscgMethod {
  static constexpr bool kPreconditioned = true;
  static constexpr bool kBlockingDots = false;
  static constexpr bool kScheduledReplacement = true;
  static constexpr bool kVerifiedAcceptance = true;
  static constexpr bool kSaveAfterScalarWork = false;

  PipePscgMethod(Engine& engine, const ShiftedBasis& basis,
                 double extra_flops_per_outer)
      : basis(basis),
        su(static_cast<std::size_t>(basis.s())),
        extra_flops(extra_flops_per_outer *
                    static_cast<double>(engine.global_size())),
        v(engine.new_block(su + 1)),
        v_next(engine.new_block(su + 1)),
        w(engine.new_block(su + 1)),
        w_next(engine.new_block(su + 1)),
        ev(engine.new_block(su)),
        ev_next(engine.new_block(su)),
        ew(engine.new_block(su)),
        ew_next(engine.new_block(su)),
        p(engine.new_block(su)),
        p_next(engine.new_block(su)),
        tu(new_towers(engine, su)),
        tu_next(new_towers(engine, su)),
        tr(new_towers(engine, su)),
        tr_next(new_towers(engine, su)) {}

  void start(Engine& engine, const Vec& b, const Vec& x, Vec& scratch) {
    engine.apply_op(x, scratch);
    engine.waxpy(w[0], -1.0, scratch, b);  // w_0 = r_0 = b - A x_0
    engine.apply_pc(w[0], v[0]);            // v_0 = u_0 = M^{-1} r_0
    extend_chain_pc(engine, basis, ChainView{&w, &ew}, ChainView{&v, &ev}, 1,
                    su, scratch);
  }

  void dot_pairs(const DotLayout& layout, std::vector<DotPair>& out) const {
    build_dot_pairs(layout, w, v, tr[0], out);
  }

  // Extend both chains to degree 2s behind the reduction (Alg. 6 line 36,
  // Alg. 7 line 20).
  void overlap(Engine& engine, Vec& scratch) {
    extend_chain_pc(engine, basis, ChainView{&w, &ew}, ChainView{&v, &ev},
                    su + 1, su, scratch);
  }

  void update(Engine& engine, const Vec& b, Vec& x,
              const ScalarWork::Result& sw, bool first, bool replace,
              Vec& scratch) {
    copy_block(engine, v, p_next, su);  // P = V[0..s-1] + P_prev B
    if (!first) engine.block_maxpy(p_next, p, sw.b);
    for (std::size_t j = 0; j <= su; ++j) {
      for (std::size_t c = 0; c < su; ++c) {
        const std::span<const double> seed =
            basis.seed(static_cast<int>(j), static_cast<int>(c));
        combine_chain(engine, seed, ChainView{&v, &ev}, tu_next[j][c]);
        combine_chain(engine, seed, ChainView{&w, &ew}, tr_next[j][c]);
      }
      if (!first) {
        engine.block_maxpy(tu_next[j], tu[j], sw.b);
        engine.block_maxpy(tr_next[j], tr[j], sw.b);
      }
    }
    engine.block_axpy(x, p_next, sw.alpha);
    // New bases: pure recurrence (Alg. 6 lines 28-33, no PC or SPMV), or
    // rebuilt from the true residual on a replacement.
    if (replace) {
      engine.apply_op(x, scratch);
      engine.waxpy(w_next[0], -1.0, scratch, b);
      engine.apply_pc(w_next[0], v_next[0]);
      extend_chain_pc(engine, basis, ChainView{&w_next, &ew_next},
                      ChainView{&v_next, &ev_next}, 1, su, scratch);
    } else {
      for (std::size_t j = 0; j <= su; ++j) {
        engine.block_combine(v_next[j], v[j], tu_next[j], sw.alpha);
        engine.block_combine(w_next[j], w[j], tr_next[j], sw.alpha);
      }
    }
    if (extra_flops > 0.0) engine.charge(extra_flops, extra_flops * 8.0);
    std::swap(v, v_next);
    std::swap(w, w_next);
    std::swap(ev, ev_next);
    std::swap(ew, ew_next);
    std::swap(p, p_next);
    std::swap(tu, tu_next);
    std::swap(tr, tr_next);
  }

  const ShiftedBasis& basis;
  std::size_t su;
  double extra_flops;  // charged per outer iteration (global units)
  VecBlock v, v_next, w, w_next, ev, ev_next, ew, ew_next, p, p_next;
  std::vector<VecBlock> tu, tu_next, tr, tr_next;
};

}  // namespace

SolveStats pipe_pscg_core(Engine& engine, const Vec& b, Vec& x,
                          const SolverOptions& opts, int s,
                          const std::string& method_name,
                          double extra_flops_per_outer) {
  return drive<PipePscgMethod>(engine, b, x, opts, s, method_name,
                               extra_flops_per_outer);
}

}  // namespace sstep

SolveStats PipePscgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                                 const SolverOptions& opts) const {
  return sstep::pipe_pscg_core(engine, b, x, opts, opts.s, name());
}

}  // namespace pipescg::krylov
