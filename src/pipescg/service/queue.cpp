#include "pipescg/service/queue.hpp"

#include <algorithm>

#include "pipescg/krylov/multi_rhs.hpp"

namespace pipescg::service {

bool batchable(const SolveContext& a, const SolveContext& b) {
  // Only scg-sspmv has a batched driver (krylov::scg_multi_solve); a step
  // limit makes iteration budgets diverge mid-batch, so limited jobs run
  // singly.
  if (a.method() != "scg-sspmv" || b.method() != "scg-sspmv") return false;
  if (a.step_limit() != 0 || b.step_limit() != 0) return false;
  const krylov::SolverOptions& oa = a.options();
  const krylov::SolverOptions& ob = b.options();
  return oa.s == ob.s && oa.rtol == ob.rtol && oa.atol == ob.atol &&
         oa.norm == ob.norm && oa.max_iterations == ob.max_iterations &&
         oa.basis == ob.basis;
}

void AdmissionQueue::submit(SolveContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  ctx->state_ = JobState::kQueued;
  ctx->enqueued_at_ = std::chrono::steady_clock::now();
  queue_.push_back(ctx);
  ++admitted_;
}

std::size_t AdmissionQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<SolveContext*> AdmissionQueue::next_batch(std::size_t max_batch) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SolveContext*> out;
  if (queue_.empty()) return out;
  out.push_back(queue_.front());
  queue_.pop_front();
  // Never wider than one allreduce can carry for the head job's s and basis.
  const krylov::SolverOptions& head = out.front()->options();
  if (head.s >= 1)
    max_batch = std::min(
        max_batch,
        krylov::max_batch_columns(
            head.s, head.basis.type != krylov::BasisType::kMonomial));
  // Longest batchable PREFIX only: grouping never lets a job overtake an
  // incompatible earlier arrival.
  while (out.size() < std::max<std::size_t>(max_batch, 1) &&
         !queue_.empty() && batchable(*out.front(), *queue_.front())) {
    out.push_back(queue_.front());
    queue_.pop_front();
  }
  if (out.size() > 1) ++batches_;
  return out;
}

std::size_t AdmissionQueue::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

std::size_t AdmissionQueue::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

}  // namespace pipescg::service
