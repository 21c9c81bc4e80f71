// Tests for the finite-precision robustness layer of the pipelined s-step
// solvers: verified acceptance (no spurious convergence), residual
// replacement (truth anchoring), the divergence safeguard, and the Hybrid
// switch -- the machinery behind the paper's Section V discussion and the
// Hybrid-pipelined method of Section VI-B.
#include <gtest/gtest.h>

#include <cmath>

#include "pipescg/fault/recovery.hpp"
#include "pipescg/krylov/basis.hpp"
#include "pipescg/krylov/multi_rhs.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/serial_engine.hpp"
#include "pipescg/krylov/sstep_common.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/sparse/stencil.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace pipescg::krylov {
namespace {

struct Outcome {
  SolveStats stats;
  double true_rel_residual;  // ||b - A x|| / ||b||_2
};

Outcome run_case(const std::string& method, const sparse::CsrMatrix& a,
        SolverOptions opts) {
  precond::JacobiPreconditioner pc(a);
  SerialEngine engine(
      a, solver_uses_preconditioner(method) ? &pc : nullptr);
  Vec ones = engine.new_vec();
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
  Vec b = engine.new_vec();
  engine.apply_op(ones, b);
  Vec x = engine.new_vec();
  opts.compute_true_residual = true;
  Outcome result;
  result.stats = make_solver(method)->solve(engine, b, x, opts);
  const double b2 = std::sqrt(engine.dot(b, b));
  result.true_rel_residual = result.stats.true_residual / b2;
  return result;
}

TEST(VerifiedAcceptanceTest, ConvergedImpliesTrueResidualHonorsTolerance) {
  // The ill-conditioned regime where recurred residuals can lie.  Whatever
  // the outcome, a `converged` verdict must be backed by the true residual.
  const sparse::CsrMatrix a = sparse::make_ecology2_like(96, 96);
  for (const char* method : {"pipe-scg", "pipe-pscg"}) {
    for (double rtol : {1e-2, 1e-5}) {
      SolverOptions opts;
      opts.rtol = rtol;
      opts.max_iterations = 100000;
      const Outcome r = run_case(method, a, opts);
      if (r.stats.converged) {
        // The convergence test uses the preconditioned flavor; allow the
        // flavor conversion factor but demand the same order of magnitude.
        EXPECT_LT(r.stats.final_rnorm, rtol * r.stats.b_norm)
            << method << " rtol=" << rtol;
      } else {
        EXPECT_TRUE(r.stats.stagnated || r.stats.breakdown)
            << method << " rtol=" << rtol
            << ": non-convergence must be flagged";
      }
    }
  }
}

TEST(VerifiedAcceptanceTest, PipelinedVariantsDoNotLieOnEasyProblems) {
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 24, 24, "p");
  for (const char* method : {"pipe-scg", "pipe-pscg", "pipecg-oati"}) {
    SolverOptions opts;
    opts.rtol = 1e-9;
    const Outcome r = run_case(method, a, opts);
    ASSERT_TRUE(r.stats.converged) << method;
    EXPECT_LT(r.true_rel_residual, 1e-7) << method;
  }
}

TEST(ReplacementTest, DisabledReproducesPaperPureRecurrences) {
  // replacement_period = -1 must produce exactly s SPMVs per s iterations
  // in steady state (the paper's Alg. 5); the auto setting adds the
  // documented anchoring overhead.
  const sparse::CsrMatrix a = sparse::make_ecology2_like(40, 40);
  auto spmvs_per_iter = [&](int period) {
    precond::JacobiPreconditioner pc(a);
    auto counters = [&](std::size_t iters) {
      sim::EventTrace trace;
      SerialEngine engine(a, &pc, &trace);
      Vec b = engine.new_vec();
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0;
      Vec x = engine.new_vec();
      SolverOptions opts;
      opts.rtol = 1e-30;
      opts.atol = 0.0;
      opts.max_iterations = iters;
      opts.replacement_period = period;
      make_solver("pipe-pscg")->solve(engine, b, x, opts);
      return trace.counters().spmvs;
    };
    return (static_cast<double>(counters(96)) - counters(48)) / 48.0;
  };
  EXPECT_NEAR(spmvs_per_iter(-1), 1.0, 0.02);      // pure: s per s
  EXPECT_GT(spmvs_per_iter(4), 1.15);              // anchoring overhead
}

TEST(ReplacementTest, TightAnchoringExtendsReachableTolerance) {
  // On the hard surrogate, pure recurrences stall early; period-4 anchoring
  // reaches tolerances the pure method cannot.
  const sparse::CsrMatrix a = sparse::make_ecology2_like(96, 96);
  SolverOptions pure;
  pure.rtol = 1e-6;
  pure.max_iterations = 50000;
  pure.replacement_period = -1;
  SolverOptions anchored = pure;
  anchored.replacement_period = 4;
  const Outcome r_pure = run_case("pipe-pscg", a, pure);
  const Outcome r_anchored = run_case("pipe-pscg", a, anchored);
  EXPECT_TRUE(r_anchored.stats.converged);
  EXPECT_LT(r_anchored.true_rel_residual,
            std::max(r_pure.true_rel_residual, 1e-5));
}

TEST(HybridTest, SwitchesAfterStagnationAndConverges) {
  const sparse::CsrMatrix a = sparse::make_ecology2_like(96, 96);
  SolverOptions opts;
  opts.rtol = 1e-7;
  opts.max_iterations = 100000;
  const Outcome hybrid = run_case("hybrid", a, opts);
  EXPECT_TRUE(hybrid.stats.converged);
  EXPECT_LT(hybrid.stats.final_rnorm, opts.rtol * hybrid.stats.b_norm);
}

TEST(HybridTest, MergedStatsKeepBothPhasesCounters) {
  // Phase 1 stagnates here, so the report is the merge of both phases; it
  // must keep phase 1's replacement, gap and basis bookkeeping.  Phase 1
  // runs exactly as a pipe-pscg solve with the hybrid's phase-1 options.
  const sparse::CsrMatrix a = sparse::make_ecology2_like(96, 96);
  SolverOptions opts;
  opts.rtol = 1e-10;
  opts.s = 4;
  opts.recovery = false;
  opts.gap_tol = 1e-3;
  opts.max_iterations = 100000;
  SolverOptions phase1 = opts;
  phase1.detect_stagnation = true;
  phase1.replacement_period = 4;
  const Outcome first = run_case("pipe-pscg", a, phase1);
  ASSERT_FALSE(first.stats.converged);
  ASSERT_GT(first.stats.replacements, 0u);
  ASSERT_GT(first.stats.gap_checks, 0u);

  const Outcome hybrid = run_case("hybrid", a, opts);
  ASSERT_GT(hybrid.stats.iterations, first.stats.iterations);  // merged
  EXPECT_GE(hybrid.stats.replacements, first.stats.replacements);
  EXPECT_GE(hybrid.stats.gap_checks, first.stats.gap_checks);
  EXPECT_GE(hybrid.stats.failed_replacements,
            first.stats.failed_replacements);
  EXPECT_GE(hybrid.stats.max_residual_gap, first.stats.max_residual_gap);
  EXPECT_EQ(hybrid.stats.basis, "monomial");
}

TEST(HybridTest, NoSwitchWhenPhaseOneSuffices) {
  // On a benign problem PIPE-PsCG converges directly; the hybrid must not
  // pay a second phase (iteration count equals the plain run's).
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 24, 24, "p");
  SolverOptions opts;
  opts.rtol = 1e-8;
  const Outcome plain = run_case("pipe-pscg", a, opts);
  SolverOptions hopts = opts;
  hopts.replacement_period = 4;  // hybrid phase 1 default
  const Outcome tuned_plain = run_case("pipe-pscg", a, hopts);
  const Outcome hybrid = run_case("hybrid", a, opts);
  ASSERT_TRUE(plain.stats.converged);
  ASSERT_TRUE(hybrid.stats.converged);
  EXPECT_EQ(hybrid.stats.iterations, tuned_plain.stats.iterations);
}

TEST(SafeguardTest, DivergenceIsFlaggedNotReturnedAsSuccess) {
  // Force the fragile regime: deep s, no replacement, tight tolerance.
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 20, 20, "p");
  SolverOptions opts;
  opts.rtol = 1e-10;
  opts.s = 6;
  opts.replacement_period = -1;
  opts.max_iterations = 50000;
  const Outcome r = run_case("pipe-pscg", a, opts);
  if (!r.stats.converged) {
    EXPECT_TRUE(r.stats.stagnated || r.stats.breakdown);
    EXPECT_LT(r.stats.iterations, opts.max_iterations);
  } else {
    EXPECT_LT(r.true_rel_residual, 1e-6);
  }
}

TEST(BasisTest, ShiftedBasesConvergeWhereMonomialStagnatesAtLargeS) {
  // The fig3 cliff: at s = 8 the monomial powers of the ill-conditioned
  // surrogate collapse onto the dominant eigenvector and the scalar work
  // stagnates even with period-16 anchoring; the Newton and Chebyshev
  // families keep the basis Gram matrix well conditioned and converge.
  const sparse::CsrMatrix a = sparse::make_ecology2_like(64, 64);
  SolverOptions opts;
  opts.rtol = 1e-6;
  opts.s = 8;
  opts.max_iterations = 40000;
  opts.replacement_period = 16;
  opts.recovery = false;  // no degrade-s rescue: measure the basis itself

  const Outcome mono = run_case("pipe-pscg", a, opts);
  EXPECT_FALSE(mono.stats.converged) << "monomial s=8 unexpectedly converged";

  for (const BasisType type : {BasisType::kNewton, BasisType::kChebyshev}) {
    SolverOptions shifted = opts;
    shifted.basis.type = type;
    const Outcome r = run_case("pipe-pscg", a, shifted);
    EXPECT_TRUE(r.stats.converged) << to_string(type);
    EXPECT_LT(r.true_rel_residual, 1e-4) << to_string(type);
    EXPECT_EQ(r.stats.basis, to_string(type));
    EXPECT_GT(r.stats.basis_lambda_max, r.stats.basis_lambda_min);
  }
}

TEST(BasisTest, ShiftedBasisKeepsTheAllreduceSchedule) {
  // Same outer-iteration count => same collective count: the Gram payload
  // is wider, but the number of allreduces per outer iteration (and the
  // SPMV count) must not change -- that is the headline constraint of the
  // shifted-basis design.
  const sparse::CsrMatrix a = sparse::make_ecology2_like(32, 32);
  auto counters = [&](BasisType type) {
    precond::JacobiPreconditioner pc(a);
    sim::EventTrace trace;
    SerialEngine engine(a, &pc, &trace);
    Vec b = engine.new_vec();
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0;
    Vec x = engine.new_vec();
    SolverOptions opts;
    opts.rtol = 1e-30;  // run to the iteration cap
    opts.atol = 0.0;
    opts.s = 4;
    opts.max_iterations = 64;  // 16 outer iterations
    opts.replacement_period = -1;
    opts.recovery = false;
    opts.basis.type = type;
    make_solver("pipe-pscg")->solve(engine, b, x, opts);
    return trace.counters();
  };
  const auto mono = counters(BasisType::kMonomial);
  const auto cheb = counters(BasisType::kChebyshev);
  EXPECT_EQ(cheb.allreduces, mono.allreduces + 10u)
      << "chebyshev may add only the SETUP dots of the power-iteration "
         "interval estimate (one per power iteration), never per-iteration "
         "collectives";
  EXPECT_EQ(cheb.spmvs, mono.spmvs + 10u)
      << "chebyshev may add only the 10 setup power-iteration SPMVs";
}

TEST(BasisTest, GapMonitoredSolveIsDeterministic) {
  // Residual replacement + gap monitoring must not introduce run-to-run
  // nondeterminism: two identical solves take bitwise-identical
  // trajectories.
  const sparse::CsrMatrix a = sparse::make_ecology2_like(48, 48);
  SolverOptions opts;
  opts.rtol = 1e-6;
  opts.s = 6;
  opts.max_iterations = 30000;
  opts.basis.type = BasisType::kChebyshev;
  opts.replacement_period = 16;
  opts.gap_tol = 1e-2;
  opts.gap_check_period = 4;
  const Outcome first = run_case("pipe-pscg", a, opts);
  const Outcome second = run_case("pipe-pscg", a, opts);
  EXPECT_EQ(first.stats.iterations, second.stats.iterations);
  EXPECT_EQ(first.stats.final_rnorm, second.stats.final_rnorm);  // bitwise
  EXPECT_EQ(first.stats.replacements, second.stats.replacements);
  EXPECT_EQ(first.stats.gap_checks, second.stats.gap_checks);
  EXPECT_GT(first.stats.gap_checks, 0u);
  EXPECT_GE(first.stats.last_residual_gap, 0.0);
}

TEST(BasisTest, MultiRhsCarriesTheShiftedBasis) {
  // The batched driver must stay column-wise identical to single-RHS
  // scg-sspmv under a shifted basis.
  const sparse::CsrMatrix a = sparse::make_thermal2_like(14, 14);
  SolverOptions opts;
  opts.rtol = 1e-8;
  opts.s = 4;
  opts.basis.type = BasisType::kChebyshev;

  auto make_b = [&](SerialEngine& engine, std::size_t j) {
    Vec b = engine.new_vec();
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = 1.0 + 0.5 * std::sin(0.3 * static_cast<double>(i + 7 * j));
    return b;
  };

  std::vector<SolveStats> ref(2);
  std::vector<std::vector<double>> x_ref(2);
  for (std::size_t j = 0; j < 2; ++j) {
    SerialEngine engine(a);
    Vec b = make_b(engine, j);
    Vec x = engine.new_vec();
    ref[j] = make_solver("scg-sspmv")->solve(engine, b, x, opts);
    ASSERT_TRUE(ref[j].converged);
    EXPECT_EQ(ref[j].basis, "chebyshev");
    x_ref[j].assign(x.data(), x.data() + x.size());
  }

  SerialEngine engine(a);
  std::vector<Vec> bs;
  std::vector<Vec> xs;
  for (std::size_t j = 0; j < 2; ++j) {
    bs.push_back(make_b(engine, j));
    xs.push_back(engine.new_vec());
  }
  const std::vector<SolveStats> stats = scg_multi_solve(
      engine, std::span<const Vec>(bs), std::span<Vec>(xs), opts);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_TRUE(stats[j].converged) << "column " << j;
    EXPECT_EQ(stats[j].basis, "chebyshev");
    EXPECT_EQ(stats[j].iterations, ref[j].iterations) << "column " << j;
    EXPECT_EQ(stats[j].final_rnorm, ref[j].final_rnorm) << "column " << j;
    for (std::size_t i = 0; i < x_ref[j].size(); ++i)
      ASSERT_EQ(xs[j][i], x_ref[j][i]) << "column " << j << " entry " << i;
  }
}

TEST(GapMonitorTest, LadderEscalatesAfterTwoFailedReplacements) {
  SolveStats stats;
  sstep::GapMonitor monitor(0.1);
  ASSERT_TRUE(monitor.enabled());
  monitor.new_attempt();
  using Action = sstep::GapMonitor::Action;
  // Healthy check.
  EXPECT_EQ(monitor.observe(1.0, 1.0, stats), Action::kNone);
  // Gap opens: force a replacement.
  EXPECT_EQ(monitor.observe(2.0, 1.0, stats), Action::kReplace);
  // Still open after the replacement: one failed replacement, try again.
  EXPECT_EQ(monitor.observe(2.0, 1.0, stats), Action::kReplace);
  EXPECT_EQ(stats.failed_replacements, 1u);
  // Still open: two in a row failed -- escalate to degrade-s.
  EXPECT_EQ(monitor.observe(2.0, 1.0, stats), Action::kEscalate);
  EXPECT_EQ(stats.failed_replacements, 2u);
  EXPECT_EQ(stats.gap_checks, 4u);
  EXPECT_DOUBLE_EQ(stats.max_residual_gap, 1.0);
}

TEST(GapMonitorTest, HealthyCheckResetsTheFailureLadder) {
  SolveStats stats;
  sstep::GapMonitor monitor(0.1);
  using Action = sstep::GapMonitor::Action;
  EXPECT_EQ(monitor.observe(2.0, 1.0, stats), Action::kReplace);
  EXPECT_EQ(monitor.observe(2.0, 1.0, stats), Action::kReplace);
  // The second replacement worked: the streak resets, no escalation later.
  EXPECT_EQ(monitor.observe(1.0, 1.0, stats), Action::kNone);
  EXPECT_EQ(monitor.observe(2.0, 1.0, stats), Action::kReplace);
  EXPECT_EQ(monitor.observe(2.0, 1.0, stats), Action::kReplace);
  EXPECT_EQ(stats.failed_replacements, 2u);  // 1 + 1, never consecutive
  // new_attempt() clears the in-flight state after a rollback.
  monitor.new_attempt();
  EXPECT_EQ(monitor.observe(2.0, 1.0, stats), Action::kReplace);
}

TEST(GapMonitorTest, EscalationJumpsTheRecoveryManagerToDegrade) {
  const std::vector<double> x(4, 1.0);
  fault::RecoveryManager recovery(/*enabled=*/true, /*max_recoveries=*/8);
  recovery.save(x, 0, 1.0);
  // A normal first failure is not enough to degrade...
  EXPECT_TRUE(recovery.admit_failure());
  EXPECT_FALSE(recovery.should_degrade());
  // ...but an escalated one jumps straight to the threshold.
  recovery.save(x, 4, 0.5);
  recovery.escalate_degrade();
  EXPECT_TRUE(recovery.admit_failure());
  EXPECT_TRUE(recovery.should_degrade());
  recovery.acknowledge_degrade();
  EXPECT_FALSE(recovery.should_degrade());
}

TEST(GapMonitorTest, UnattainableGapToleranceDegradesSThroughRecovery) {
  // Force the escalation path end-to-end: an impossibly tight gap tolerance
  // means every check fails even right after a replacement, so the ladder
  // must escalate and the RecoveryManager must degrade s.
  const sparse::CsrMatrix a = sparse::make_ecology2_like(48, 48);
  SolverOptions opts;
  opts.rtol = 1e-5;
  opts.s = 6;
  opts.max_iterations = 30000;
  opts.replacement_period = -1;
  opts.gap_tol = 1e-15;
  opts.gap_check_period = 1;
  const Outcome r = run_case("pipe-pscg", a, opts);
  EXPECT_GE(r.stats.failed_replacements, 2u);
  EXPECT_LT(r.stats.final_s, opts.s) << "escalation must degrade s";
  EXPECT_GT(r.stats.recoveries, 0u);
}

TEST(TrueNormTest, MatchesDirectComputation) {
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 10, 10, "p");
  precond::JacobiPreconditioner pc(a);
  SerialEngine engine(a, &pc);
  Vec b = engine.new_vec(), x = engine.new_vec();
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = std::sin(0.1 * static_cast<double>(i));
    x[i] = 0.01 * static_cast<double>(i);
  }
  Vec s1 = engine.new_vec(), s2 = engine.new_vec();
  const double unprec = sstep::true_flavored_norm(
      engine, b, x, NormType::kUnpreconditioned, s1, s2);
  // Direct: ||b - A x||.
  Vec ax = engine.new_vec(), r = engine.new_vec();
  engine.apply_op(x, ax);
  engine.waxpy(r, -1.0, ax, b);
  EXPECT_NEAR(unprec, std::sqrt(engine.dot(r, r)), 1e-12);
  // Preconditioned flavor: ||D^{-1} r||; natural: sqrt(r^T D^{-1} r).
  const double prec = sstep::true_flavored_norm(
      engine, b, x, NormType::kPreconditioned, s1, s2);
  const double natural = sstep::true_flavored_norm(
      engine, b, x, NormType::kNatural, s1, s2);
  Vec u = engine.new_vec();
  engine.apply_pc(r, u);
  EXPECT_NEAR(prec, std::sqrt(engine.dot(u, u)), 1e-12);
  EXPECT_NEAR(natural, std::sqrt(engine.dot(r, u)), 1e-12);
}

}  // namespace
}  // namespace pipescg::krylov
