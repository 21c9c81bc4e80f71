// sCG with s SPMVs (paper Algorithm 4, Section IV-A).
//
// The stepping stone between sCG and PIPE-sCG: the explicit residual
// r = b - A x is replaced by the recurrence r <- r - (A P) alpha, removing
// the extra SPMV (s instead of s+1 per outer iteration).  The allreduce is
// still blocking -- pipelining comes in Algorithm 5.
#pragma once

#include <vector>

#include "pipescg/krylov/solver.hpp"
#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {

class ScgSspmvSolver final : public Solver {
 public:
  std::string name() const override { return "scg-sspmv"; }
  SolveStats solve(Engine& engine, const Vec& b, Vec& x,
                   const SolverOptions& opts) const override;
};

namespace sstep {

/// sCG-sSPMV as a method of the shared s-step driver (sstep_driver.hpp):
/// the basis S = [r, p_1(A) r, ..., p_s(A) r] is rebuilt each outer
/// iteration with s SPMVs from the recurred residual, and A P is carried by
/// recurrence.  Blocking dots, no scheduled replacement (only the gap
/// monitor forces one), no verified acceptance.  scg_multi_solve drives k
/// of these in lockstep.
struct ScgSspmvMethod {
  static constexpr bool kPreconditioned = false;
  static constexpr bool kBlockingDots = true;
  static constexpr bool kScheduledReplacement = false;
  static constexpr bool kVerifiedAcceptance = false;
  static constexpr bool kSaveAfterScalarWork = true;

  ScgSspmvMethod(Engine& engine, const ShiftedBasis& basis);

  void start(Engine& engine, const Vec& b, const Vec& x, Vec& scratch);
  void dot_pairs(const DotLayout& layout, std::vector<DotPair>& out) const {
    build_dot_pairs(layout, s, s, ap, out);
  }
  void overlap(Engine&, Vec&) {}
  void update(Engine& engine, const Vec& b, Vec& x,
              const ScalarWork::Result& sw, bool first, bool replace,
              Vec& scratch);

  const ShiftedBasis* basis;
  // Current blocks and the buffers the next ones are built in.
  VecBlock s, s_next;    // basis, s+1 columns
  VecBlock p, p_next;    // direction block
  VecBlock ap, ap_next;  // A P
};

}  // namespace sstep
}  // namespace pipescg::krylov
