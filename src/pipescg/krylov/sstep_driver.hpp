// The one s-step outer loop shared by sCG-sSPMV, PIPE-sCG and PIPE-PsCG
// (paper Alg. 4-7; PIPECG-OATI, PIPECG3 and Hybrid run the PIPE-PsCG
// method).  See DESIGN.md section 6.
//
// Every outer iteration of those methods has the same shape: wait for one
// batched dot reduction, run the s x s scalar work, update the direction
// and tower blocks, recur (or replace) the basis, post the next batch.  The
// driver owns all of that plus everything around it -- the solve prologue,
// the RecoveryManager attempt / rollback / degrade-s loop, the per-outer
// checkpoint block (finite gate, piggybacked gap dot and GapMonitor
// ladder, telemetry, divergence, checkpoint saves, stall detection,
// verified acceptance), the replacement schedule and the epilogue.  A
// method is a struct `M` holding its blocks and four steps:
//
//   M(engine, basis, args...)          allocate the attempt's blocks
//   start(engine, b, x, scratch)       r_0 = b - A x (scratch gets A x),
//                                      basis degrees 1..s
//   dot_pairs(layout, out)             the batch for the current basis
//   overlap(engine, scratch)           work hidden behind the reduction
//   update(engine, b, x, sw, first, replace, scratch)
//                                      direction/tower blocks, x += P alpha,
//                                      then recur the basis -- or, when
//                                      `replace`, rebuild it from b - A x
//
// and five compile-time properties: kPreconditioned (twin r/u bases and
// the norm-flavor dots), kBlockingDots (the batch is tagged as a blocking
// collective), kScheduledReplacement (SolverOptions::replacement_period
// applies; otherwise only the gap monitor forces a replacement),
// kVerifiedAcceptance (convergence is confirmed against the true residual)
// and kSaveAfterScalarWork (an improving iterate is checkpointed only once
// its batch passed the scalar work, instead of before it; this decides
// which iterate a scalar-work failure rolls back to).
//
// Rollback verdicts derive from the reduced dot batch, identical on all
// ranks, so the control flow stays in SPMD lockstep with no extra
// communication.  A clean run is one attempt whose arithmetic does not
// depend on whether recovery is enabled (checkpoints are raw copies outside
// the engine kernels).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "pipescg/fault/recovery.hpp"
#include "pipescg/krylov/sstep_common.hpp"
#include "pipescg/obs/profiler.hpp"

namespace pipescg::krylov::sstep {

template <class M, class... Args>
SolveStats drive(Engine& engine, const Vec& b, Vec& x,
                 const SolverOptions& opts, int s, std::string method,
                 const Args&... args) {
  SolveStats stats;
  stats.method = std::move(method);
  stats.b_norm = detail::compute_b_norm(engine, b, opts.norm);
  const double tol = detail::threshold(stats, opts);

  // Basis shifts resolved once per solve (setup-only collectives for the
  // shifted families; a monomial spec passes through with no kernels).
  const BasisSpec basis_spec =
      resolve_basis(engine, opts.basis, M::kPreconditioned);
  stats.basis = to_string(basis_spec.type);
  stats.basis_lambda_min = basis_spec.lambda_min;
  stats.basis_lambda_max = basis_spec.lambda_max;

  // The true-residual checks (gap monitor, verified acceptance) measure
  // the flavor the method's dot batch reports.
  const NormType check_norm =
      M::kPreconditioned ? opts.norm : NormType::kUnpreconditioned;
  Vec scratch = engine.new_vec();
  Vec scratch2 = M::kVerifiedAcceptance ? engine.new_vec() : Vec();
  Vec gap_r = engine.new_vec();
  Vec gap_u = M::kPreconditioned ? engine.new_vec() : Vec();

  // The gap monitor outlives the attempts: its failure ladder must survive
  // the rollback an escalation causes.
  GapMonitor gap_monitor(opts.gap_tol);
  const int gap_period = resolve_gap_period(opts);
  // The initial save means there is always a checkpoint to roll back to.
  fault::RecoveryManager recovery(opts.recovery, opts.max_recoveries);
  if (recovery.active())
    recovery.save(x.span(), 0, std::numeric_limits<double>::infinity());
  TelemetrySnapshot telem;
  std::size_t iterations = 0;
  double rnorm = 0.0;
  int cur_s = s;

  // One attempt runs at a fixed depth to a terminal state (flagged in
  // stats; returns false) or to a fault the recovery layer handles
  // (returns true): x is rolled back and the next attempt rebuilds the
  // basis from the restored iterate.
  const auto attempt = [&](int s_att) -> bool {
    const std::size_t su = static_cast<std::size_t>(s_att);
    const ShiftedBasis basis(basis_spec, s_att);
    gap_monitor.new_attempt();
    M m(engine, basis, args...);
    m.start(engine, b, x, scratch);

    const DotLayout layout{s_att, M::kPreconditioned, !basis.monomial()};
    std::vector<DotPair> pairs;
    // One spare slot for the piggybacked gap-check dot; on iterations with
    // no check pending only the leading layout.total() values are live.
    std::vector<double> values(layout.total() + 1);
    const std::span<const double> active(values.data(), layout.total());
    m.dot_pairs(layout, pairs);
    DotHandle handle = engine.dot_post(pairs, M::kBlockingDots);
    m.overlap(engine, scratch);

    const int replacement_period =
        M::kScheduledReplacement ? resolve_replacement_period(opts, s_att) : 0;
    ScalarWork scalar_work(s_att);
    detail::StallDetector stall(opts.stall_improvement, opts.stall_window);
    detail::DivergenceDetector diverge(0.0);
    std::size_t outer = 0;
    bool force_replace = false;
    bool gap_pending = false;
    // A genuinely improving iterate is worth checkpointing (raw copy; no
    // engine kernels, so clean-run trajectories are untouched).
    const auto save_checkpoint = [&] {
      if (recovery.should_save(rnorm))
        recovery.save(x.span(), iterations, rnorm);
    };

    for (;;) {
      engine.dot_wait(handle, values);
      // Fault gate: a corrupted kernel output (SDC) or overflow lands in the
      // batch as NaN or Inf; roll back before the values feed anything.
      if (recovery.active() && !batch_finite(active)) return true;
      rnorm = std::sqrt(std::max(layout.norm_sq(values, opts.norm), 0.0));
      if (gap_pending) {
        // The true-residual dot posted with this batch describes the same
        // iterate as the recurred norm: zero extra collectives.
        gap_pending = false;
        const double true_norm =
            std::sqrt(std::max(values[layout.total()], 0.0));
        if (!std::isfinite(true_norm)) {
          if (recovery.active()) return true;
        } else {
          const GapMonitor::Action act =
              gap_monitor.observe(rnorm, true_norm, stats);
          telem.note_gap(true_norm, gap_monitor.last_gap());
          if (act == GapMonitor::Action::kReplace) {
            force_replace = true;
          } else if (act == GapMonitor::Action::kEscalate) {
            // Two gap-triggered replacements failed to close the gap: the
            // recurrences are unstable at this depth, so ask for degrade-s.
            if (recovery.active()) {
              recovery.escalate_degrade();
              return true;
            }
            stats.stagnated = true;
            break;
          }
        }
      }
      telem.checkpoint(iterations, rnorm, opts, s_att, stats.recoveries);
      if (!detail::checkpoint(stats, opts, iterations, rnorm)) {
        if (recovery.active()) {
          stats.breakdown = false;  // rolling back, not stopping
          return true;
        }
        stats.stagnated = true;
        break;
      }
      if (iterations > 0) engine.mark_iteration(iterations - 1, rnorm);
      if (outer == 0) diverge = detail::DivergenceDetector(rnorm);

      if (rnorm < tol) {
        if constexpr (!M::kVerifiedAcceptance) {
          stats.converged = true;
          break;
        } else {
          // The recurred residual can cross the threshold spuriously
          // (rounding drift): only the true residual declares convergence;
          // otherwise re-anchor and keep iterating.
          rnorm = true_flavored_norm(engine, b, x, check_norm, scratch,
                                     scratch2);
          stats.history.back().second = rnorm;
          if (rnorm < tol) {
            stats.converged = true;
            break;
          }
          force_replace = true;
        }
      }
      if (iterations >= opts.max_iterations) break;
      if (diverge.update(rnorm)) {
        if (recovery.active()) return true;
        stats.stagnated = true;
        break;
      }
      if constexpr (!M::kSaveAfterScalarWork) save_checkpoint();
      // Stagnation is judged on *honest* checkpoints only: with scheduled
      // replacement those follow a truth anchoring (the recurred residual
      // can keep "improving" while the true one stalls).
      const bool honest_checkpoint =
          replacement_period == 0 || outer == 0 ||
          (outer - 1) % static_cast<std::size_t>(replacement_period) == 0;
      if (opts.detect_stagnation && honest_checkpoint && stall.update(rnorm)) {
        stats.stagnated = true;
        break;
      }

      const ScalarWork::Result sw = scalar_work.step(layout, basis, values);
      if (!sw.ok) {
        if (sw.gram_breakdown) ++stats.gram_breakdowns;
        if (recovery.active()) return true;
        stats.breakdown = true;
        stats.stagnated = true;
        break;
      }
      telem.capture(sw);
      if constexpr (M::kSaveAfterScalarWork) save_checkpoint();

      // Residual replacement (van der Vorst): anchor to b - A x and rebuild
      // the basis explicitly, resetting recurrence drift.
      const bool replace =
          force_replace ||
          (replacement_period > 0 && outer > 0 &&
           outer % static_cast<std::size_t>(replacement_period) == 0);
      force_replace = false;
      if (replace) ++stats.replacements;
      m.update(engine, b, x, sw, outer == 0, replace, scratch);

      // Gap check on due iterations: the true residual of the new iterate,
      // its norm dot riding the batch below.  Skipped after a replacement,
      // where the comparison would be vacuously zero.
      const bool gap_due =
          gap_monitor.enabled() && !replace &&
          (outer + 1) % static_cast<std::size_t>(gap_period) == 0;
      DotPair gap_pair{};
      if (gap_due)
        gap_pair =
            flavored_residual(engine, b, x, check_norm, gap_r, gap_u, scratch);
      m.dot_pairs(layout, pairs);
      if (gap_due) {
        pairs.push_back(gap_pair);
        gap_pending = true;
      }
      handle = engine.dot_post(pairs, M::kBlockingDots);
      m.overlap(engine, scratch);
      iterations += su;
      ++outer;
    }
    return false;
  };

  while (attempt(cur_s)) {
    if (!recovery.admit_failure()) {
      // Recovery budget exhausted: report the failure honestly.
      stats.breakdown = true;
      stats.stagnated = true;
      break;
    }
    iterations = recovery.restore(x.span());
    rnorm = recovery.checkpoint_rnorm();
    ++stats.recoveries;
    if (obs::Profiler* prof = obs::Profiler::current())
      ++prof->counters().recoveries;
    if (recovery.should_degrade() && cur_s > 1) {
      cur_s = std::max(1, cur_s - 1);
      recovery.acknowledge_degrade();
    }
  }

  // Rollbacks that still ended short of the tolerance are a stagnation:
  // recovery kept the solve alive past diagnostics that would have stopped
  // it, so report the failure class those diagnostics carry.
  if (!stats.converged && stats.recoveries > 0) stats.stagnated = true;

  stats.final_s = cur_s;
  stats.iterations = iterations;
  stats.final_rnorm = rnorm;
  detail::finalize_stats(engine, b, x, opts, stats);
  return stats;
}

}  // namespace pipescg::krylov::sstep
