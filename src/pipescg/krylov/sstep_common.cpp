#include "pipescg/krylov/sstep_common.hpp"

#include <algorithm>
#include <cmath>

#include "pipescg/base/error.hpp"
#include "pipescg/la/cholesky.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/obs/telemetry.hpp"

namespace pipescg::krylov::sstep {
namespace {

bool all_finite(const la::DenseMatrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (!std::isfinite(m(i, j))) return false;
  return true;
}

bool all_finite(std::span<const double> v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

ScalarWork::ScalarWork(int s) : s_(s), w_prev_(0, 0) {
  PIPESCG_CHECK(s >= 1 && s <= 16, "s must be in [1, 16]");
}

ScalarWork::Result ScalarWork::step(std::span<const double> moments,
                                    const la::DenseMatrix& cross) {
  const std::size_t s = static_cast<std::size_t>(s_);
  PIPESCG_CHECK(moments.size() >= 2 * s + 1, "need 2s+1 moments");
  if (!all_finite(moments)) {
    Result result;
    result.b = la::DenseMatrix(s, s);
    result.alpha.assign(s, 0.0);
    return result;
  }
  la::DenseMatrix m_s(s, s);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t k = 0; k < s; ++k) m_s(j, k) = moments[j + k + 1];
  return solve_with(m_s, moments.subspan(0, s), cross);
}

ScalarWork::Result ScalarWork::step(const DotLayout& layout,
                                    const ShiftedBasis& basis,
                                    std::span<const double> values) {
  const la::DenseMatrix cross = layout.cross(values);
  if (!layout.gram) return step(values.first(layout.moment_count()), cross);
  const std::size_t s = static_cast<std::size_t>(s_);
  PIPESCG_CHECK(basis.s() == s_ && layout.s == s_, "basis depth mismatch");
  // Symmetric triangle access: G(j, k) = G(k, j).
  const auto g_at = [&](std::size_t j, std::size_t k) {
    return j <= k ? values[layout.gram_index(j, k)]
                  : values[layout.gram_index(k, j)];
  };
  // M_S(j, k) = (S[j], x S[k]) expanded through the three-term recurrence
  // x p_k = gamma_k p_{k+1} + theta_k p_k + sigma_k p_{k-1}; symmetrized
  // because the expansion is only symmetric in exact arithmetic.
  la::DenseMatrix m_s(s, s);
  for (std::size_t j = 0; j < s; ++j) {
    for (std::size_t k = 0; k < s; ++k) {
      const int ki = static_cast<int>(k);
      double v = basis.gamma(ki) * g_at(j, k + 1) +
                 basis.theta(ki) * g_at(j, k);
      if (k > 0) v += basis.sigma(ki) * g_at(j, k - 1);
      m_s(j, k) = v;
    }
  }
  m_s.symmetrize();
  std::vector<double> g(s);
  for (std::size_t j = 0; j < s; ++j) g[j] = g_at(0, j);
  return solve_with(m_s, g, cross);
}

ScalarWork::Result ScalarWork::solve_with(const la::DenseMatrix& m_s,
                                          std::span<const double> g,
                                          const la::DenseMatrix& cross) {
  const std::size_t s = static_cast<std::size_t>(s_);
  PIPESCG_CHECK(cross.rows() == s && cross.cols() == s, "cross must be s x s");

  Result result;
  result.b = la::DenseMatrix(s, s);
  result.alpha.assign(s, 0.0);
  if (!all_finite(m_s) || !all_finite(cross) || !all_finite(g)) return result;

  la::DenseMatrix w(s, s);
  try {
    if (first_) {
      w = m_s;
    } else {
      // W_{i-1} B = -C
      la::DenseMatrix neg_c(s, s);
      for (std::size_t k = 0; k < s; ++k)
        for (std::size_t j = 0; j < s; ++j) neg_c(k, j) = -cross(k, j);
      la::LuFactorization lu_prev(w_prev_);
      result.b = lu_prev.solve(neg_c);
      // W = M_S + C^T B  (the B^T C + C^T B + B^T W B terms collapse since
      // W_{i-1} B = -C implies B^T W_{i-1} B = -B^T C).
      w = m_s;
      const la::DenseMatrix ct_b = cross.transposed() * result.b;
      w.add_scaled(ct_b, 1.0);
      w.symmetrize();
    }
    // SPD guard: W = P^T A P is SPD whenever the direction block has full
    // rank, so a failed (near-singular-tolerant) Cholesky is a certificate
    // that the basis Gram has numerically collapsed.  Fail soft -- the LU
    // below would "succeed" and hand back huge garbage coefficients.  When
    // the guard passes the actual solves still run through LU, bitwise
    // identical to the historical path.
    la::DenseMatrix w_sym = w;
    w_sym.symmetrize();
    if (!la::CholeskyFactorization::try_factor(w_sym, 1e-13)) {
      result.gram_breakdown = true;
      return result;
    }
    la::LuFactorization lu_w(w);
    result.alpha = lu_w.solve(std::vector<double>(g.begin(), g.end()));
  } catch (const Error&) {
    return result;  // singular scalar work => breakdown
  }
  if (!all_finite(result.b) ||
      !all_finite(std::span<const double>(result.alpha))) {
    return result;
  }
  w_prev_ = w;
  first_ = false;
  result.ok = true;
  return result;
}

double DotLayout::norm_sq(std::span<const double> values,
                          NormType norm) const {
  PIPESCG_CHECK(values.size() >= total(), "dot batch too small");
  if (!preconditioned) return values[0];  // all flavors coincide (u == r)
  switch (norm) {
    case NormType::kUnpreconditioned:
      return values[norm_offset()];
    case NormType::kPreconditioned:
      return values[norm_offset() + 1];
    case NormType::kNatural:
      return values[0];  // m_0 = (r, u)
  }
  return values[0];
}

la::DenseMatrix DotLayout::cross(std::span<const double> values) const {
  PIPESCG_CHECK(values.size() >= total(), "dot batch too small");
  const std::size_t su = static_cast<std::size_t>(s);
  la::DenseMatrix c(su, su);
  const std::size_t off = cross_offset();
  for (std::size_t k = 0; k < su; ++k)
    for (std::size_t j = 0; j < su; ++j) c(k, j) = values[off + k * su + j];
  return c;
}

void build_dot_pairs(const DotLayout& layout, const VecBlock& wb,
                     const VecBlock& v, const VecBlock& ap,
                     std::vector<DotPair>& out) {
  const std::size_t s = static_cast<std::size_t>(layout.s);
  PIPESCG_CHECK(ap.size() == s && wb.size() == s + 1 && v.size() == s + 1,
                "bases must have s+1 columns");
  out.clear();
  if (layout.gram) {
    // G(j, k) = (wb[j], v[k]) = v[j]^T M v[k]: symmetric, so the upper
    // triangle suffices (wb == v unpreconditioned).
    for (std::size_t j = 0; j <= s; ++j)
      for (std::size_t k = j; k <= s; ++k)
        out.push_back(DotPair{&wb[j], &v[k]});
  } else {
    // Moments m_j = ((A M^{-1})^{j-j/2} r, (M^{-1}A)^{j/2} u)
    //             = r^T (M^{-1}A)^j u.
    for (std::size_t j = 0; j <= 2 * s; ++j)
      out.push_back(DotPair{&wb[j - j / 2], &v[j / 2]});
  }
  // Cross C(k, j) = ((A P_cur)[k], V_new[j]) = (P_cur^T A V_new)(k, j).
  for (std::size_t k = 0; k < s; ++k)
    for (std::size_t j = 0; j < s; ++j)
      out.push_back(DotPair{&ap[k], &v[j]});
  if (layout.preconditioned) {
    // Norm extras: unpreconditioned (r, r) and preconditioned (u, u).
    out.push_back(DotPair{&wb[0], &wb[0]});
    out.push_back(DotPair{&v[0], &v[0]});
  }
}

DotPair flavored_residual(Engine& engine, const Vec& b, const Vec& x,
                          NormType norm, Vec& r, Vec& u, Vec& tmp) {
  engine.apply_op(x, tmp);
  engine.waxpy(r, -1.0, tmp, b);  // r = b - A x
  if (norm == NormType::kUnpreconditioned || !engine.has_preconditioner())
    return DotPair{&r, &r};
  engine.apply_pc(r, u);
  return DotPair{norm == NormType::kPreconditioned ? &u : &r, &u};
}

double true_flavored_norm(Engine& engine, const Vec& b, const Vec& x,
                          NormType norm, Vec& scratch_r, Vec& scratch_u) {
  const DotPair p =
      flavored_residual(engine, b, x, norm, scratch_r, scratch_u, scratch_u);
  return std::sqrt(std::max(engine.dot(*p.x, *p.y), 0.0));
}

bool batch_finite(std::span<const double> values) {
  return all_finite(values);
}

int resolve_replacement_period(const SolverOptions& opts, int s) {
  if (opts.replacement_period > 0) return opts.replacement_period;
  if (opts.replacement_period < 0) return 0;
  // Auto: infrequent truth anchoring at s <= 3 (keeps the reported residual
  // honest at ~(s+1)/(16 s) extra kernel cost), tighter periods at the
  // depths where the monomial tower recurrences destabilize.  The shifted
  // bases exist precisely so the tower stays conditioned at large s, so
  // they keep the relaxed period everywhere -- the same assumption
  // sim::auto_tune prices when comparing bases.
  if (opts.basis.type != BasisType::kMonomial) return 16;
  if (s <= 3) return 16;
  return s == 4 ? 4 : 1;
}

int resolve_gap_period(const SolverOptions& opts) {
  return opts.gap_check_period > 0 ? opts.gap_check_period : 8;
}

GapMonitor::Action GapMonitor::observe(double recurred_rnorm,
                                       double true_rnorm, SolveStats& stats) {
  const double gap = std::abs(recurred_rnorm - true_rnorm) /
                     std::max(true_rnorm, 1e-300);
  last_gap_ = gap;
  ++stats.gap_checks;
  stats.last_residual_gap = gap;
  stats.max_residual_gap = std::max(stats.max_residual_gap, gap);
  if (!enabled() || !(gap > tol_)) {
    // Healthy (or a replacement just closed the gap): reset the ladder.
    awaiting_ = false;
    failures_ = 0;
    return Action::kNone;
  }
  if (awaiting_) {
    // The previous gap-triggered replacement did not close the gap.
    ++failures_;
    ++stats.failed_replacements;
    if (failures_ >= 2) {
      awaiting_ = false;
      return Action::kEscalate;
    }
  }
  awaiting_ = true;
  return Action::kReplace;
}

void copy_block(Engine& engine, const VecBlock& src, VecBlock& dst,
                std::size_t count) {
  PIPESCG_CHECK(src.size() >= count && dst.size() >= count,
                "copy_block count exceeds block size");
  for (std::size_t j = 0; j < count; ++j) engine.copy(src[j], dst[j]);
}

std::vector<VecBlock> new_towers(Engine& engine, std::size_t s) {
  std::vector<VecBlock> towers;
  for (std::size_t j = 0; j <= s; ++j) towers.push_back(engine.new_block(s));
  return towers;
}

void TelemetrySnapshot::capture(const ScalarWork::Result& sw) {
  if (obs::ConvergenceTelemetry::current() == nullptr) return;
  alpha = sw.alpha;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < sw.b.rows(); ++i)
    for (std::size_t j = 0; j < sw.b.cols(); ++j)
      sum_sq += sw.b(i, j) * sw.b(i, j);
  beta_fro = std::sqrt(sum_sq);
}

void TelemetrySnapshot::checkpoint(std::uint64_t iteration, double rnorm,
                                   const SolverOptions& opts, int cur_s,
                                   std::size_t recoveries) {
  // Fire when either observer is installed: the JSONL telemetry sink or the
  // live metrics gauges (alpha/beta only reach the former; capture() stays
  // gated on it).  Gap fields are one-shot: consumed by this record, reset
  // to the -1 "no check" sentinel for the next one.
  const double tr = true_rnorm;
  const double gap = residual_gap;
  true_rnorm = -1.0;
  residual_gap = -1.0;
  if (obs::ConvergenceTelemetry::current() == nullptr &&
      obs::metrics::LiveSolve::current() == nullptr)
    return;
  obs::telemetry_checkpoint(iteration, rnorm, to_string(opts.norm), cur_s,
                            recoveries, alpha, beta_fro, tr, gap);
}

}  // namespace pipescg::krylov::sstep
