#include "layer_trace.hpp"

#include <algorithm>

#include "pipescg/krylov/multi_rhs.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/spmd_engine.hpp"

namespace perfbench {

using pipescg::krylov::DotHandle;
using pipescg::krylov::DotPair;
using pipescg::krylov::Vec;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSolve: return "krylov.solve";
    case Layer::kSpmv: return "sparse.spmv";
    case Layer::kPowers: return "sparse.powers";
    case Layer::kPcApply: return "precond.apply";
    case Layer::kDotPost: return "la.dot_post";
    case Layer::kDotWait: return "par.allreduce_wait";
    case Layer::kServiceCall: return "service.call";
    case Layer::kQueueWait: return "service.queue_wait";
    case Layer::kSetupDist: return "sparse.setup_dist";
    case Layer::kSetupMpk: return "sparse.setup_mpk";
    case Layer::kSetupPc: return "precond.setup";
    case Layer::kTeamSpawn: return "par.team_spawn";
  }
  return "unknown";
}

void TimedEngine::record(Layer layer, double start, std::uint32_t count) {
  Span span;
  span.start = start;
  span.end = log_.now();
  span.request = request_;
  span.parent = parent_;
  span.count = count;
  span.layer = layer;
  log_.add(span);
}

void TimedEngine::apply_op(const Vec& x, Vec& y) {
  const double start = log_.now();
  inner_.apply_op(x, y);
  record(Layer::kSpmv, start);
}

void TimedEngine::apply_pc(const Vec& r, Vec& u) {
  const double start = log_.now();
  inner_.apply_pc(r, u);
  record(Layer::kPcApply, start);
}

void TimedEngine::apply_op_powers(const Vec& x, std::span<Vec> outs) {
  // Without a matrix-powers kernel the inner engine chains apply_op; chain
  // through this decorator instead so each SPMV gets its own span.
  if (!inner_.has_matrix_powers()) {
    Engine::apply_op_powers(x, outs);
    return;
  }
  const double start = log_.now();
  inner_.apply_op_powers(x, outs);
  record(Layer::kPowers, start, static_cast<std::uint32_t>(outs.size()));
}

DotHandle TimedEngine::dot_post(std::span<const DotPair> pairs,
                                bool blocking) {
  const double start = log_.now();
  DotHandle handle = inner_.dot_post(pairs, blocking);
  record(Layer::kDotPost, start, static_cast<std::uint32_t>(pairs.size()));
  return handle;
}

void TimedEngine::dot_wait(DotHandle& handle, std::span<double> out) {
  const double start = log_.now();
  inner_.dot_wait(handle, out);
  record(Layer::kDotWait, start);
}

namespace {

// Time `build` into `log` as one set-up span of kind `layer`.
template <typename Build>
void timed_setup(SpanLog& log, Layer layer, Build&& build) {
  Span span;
  span.layer = layer;
  span.start = log.now();
  build();
  span.end = log.now();
  log.add(span);
}

}  // namespace

Replica::Replica(const pipescg::sparse::CsrMatrix& a, bool mpk,
                 SpanLog& setup_log, Clock::time_point epoch) {
  const auto ranks = static_cast<std::size_t>(kRanks);
  timed_setup(setup_log, Layer::kSetupDist, [&] {
    partition_ = pipescg::sparse::Partition(a.rows(), kRanks);
    for (int r = 0; r < kRanks; ++r)
      dist_.push_back(
          std::make_unique<pipescg::sparse::DistCsr>(a, partition_, r));
  });
  if (mpk) {
    timed_setup(setup_log, Layer::kSetupMpk, [&] {
      for (int r = 0; r < kRanks; ++r)
        mpk_.push_back(std::make_unique<pipescg::sparse::MatrixPowers>(
            a, partition_, r, kS));
    });
  }
  // Same construction as the Session's block-Jacobi: each rank gets the
  // slice of the global diagonal it owns.
  timed_setup(setup_log, Layer::kSetupPc, [&] {
    const std::vector<double> diag = a.diagonal();
    for (int r = 0; r < kRanks; ++r) {
      std::vector<double> local(
          diag.begin() + static_cast<std::ptrdiff_t>(partition_.begin(r)),
          diag.begin() + static_cast<std::ptrdiff_t>(partition_.end(r)));
      pc_.push_back(std::make_unique<pipescg::precond::JacobiPreconditioner>(
          std::move(local), a.stats()));
    }
  });
  timed_setup(setup_log, Layer::kTeamSpawn, [&] {
    team_ = std::make_unique<pipescg::par::PersistentTeam>(kRanks);
  });
  rank_logs_.assign(ranks, SpanLog(epoch));
  vector_bytes_.assign(ranks, 0.0);
  roots_.assign(ranks, kNoParent);
}

void Replica::clear() {
  for (SpanLog& log : rank_logs_) log.clear();
  std::fill(vector_bytes_.begin(), vector_bytes_.end(), 0.0);
}

Replica::Run Replica::run(std::span<const Request* const> batch) {
  const std::size_t k = batch.size();
  const std::string& method = batch[0]->method;
  const pipescg::krylov::SolverOptions opts = request_options();
  const bool use_pc = pipescg::krylov::solver_uses_preconditioner(method);
  const std::uint64_t head = batch[0]->id;

  Run result;
  result.stats.resize(k);
  result.x.assign(k, std::vector<double>(batch[0]->b.size(), 0.0));
  const Clock::time_point t0 = Clock::now();
  team_->run([&](pipescg::par::Comm& comm) {
    const int rank = comm.rank();
    const auto ri = static_cast<std::size_t>(rank);
    const pipescg::sparse::MatrixPowers* mpk =
        mpk_.empty() ? nullptr : mpk_[ri].get();
    pipescg::krylov::SpmdEngine inner(comm, *dist_[ri],
                                      use_pc ? pc_[ri].get() : nullptr,
                                      /*profiler=*/nullptr, mpk);
    const std::size_t begin = partition_.begin(rank);
    const std::size_t len = partition_.local_size(rank);
    std::vector<Vec> bs;
    std::vector<Vec> xs;
    for (const Request* req : batch) {
      Vec b = inner.new_vec();
      for (std::size_t i = 0; i < len; ++i) b[i] = req->b[begin + i];
      bs.push_back(std::move(b));
      xs.push_back(inner.new_vec());
    }

    SpanLog& log = rank_logs_[ri];
    Span root;
    root.request = head;
    root.count = static_cast<std::uint32_t>(k);
    root.layer = Layer::kSolve;
    root.start = log.now();
    const std::uint32_t root_index = log.add(root);
    TimedEngine engine(inner, log, head, root_index);
    std::vector<pipescg::krylov::SolveStats> stats;
    if (k == 1) {
      stats.push_back(
          pipescg::krylov::make_solver(method)->solve(engine, bs[0], xs[0],
                                                      opts));
    } else {
      stats = pipescg::krylov::scg_multi_solve(
          engine, std::span<const Vec>(bs), std::span<Vec>(xs), opts);
    }
    log.at(root_index).end = log.now();
    roots_[ri] = root_index;
    vector_bytes_[ri] += engine.vector_bytes();
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t i = 0; i < len; ++i) result.x[c][begin + i] = xs[c][i];
    if (rank == 0) result.stats = std::move(stats);
  });
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (std::size_t r = 0; r < rank_logs_.size(); ++r)
    result.max_solve_seconds = std::max(
        result.max_solve_seconds, rank_logs_[r].at(roots_[r]).seconds());
  return result;
}

}  // namespace perfbench
