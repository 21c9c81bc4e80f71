// Per-layer tracing taken from outside the solver.
//
// The traced run cannot open spans inside the library, so it rebuilds the
// Session's per-rank state from the same public constructors (Partition,
// DistCsr, MatrixPowers, JacobiPreconditioner, PersistentTeam) and runs the
// same drivers on a TimedEngine: an Engine decorator over krylov::SpmdEngine
// that times every call the solver makes into another layer.  The vector
// and Gram work the drivers do through the Engine base class stays inside
// the decorator and is not timed, so a rank's krylov self time is its solve
// span minus its child spans.
//
// Spans stay in memory, one SpanLog per track (each rank, the service
// thread, set-up), and are written out once the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pipescg/krylov/engine.hpp"
#include "pipescg/krylov/solver.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/sparse/csr_matrix.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/matrix_powers.hpp"
#include "pipescg/sparse/partition.hpp"

#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Span kinds; the prefix of each name is the src/pipescg/ module it times.
enum class Layer : std::uint8_t {
  kSolve,        ///< krylov: one rank's driver call, root of its spans
  kSpmv,         ///< sparse: Engine::apply_op (local SPMV + halo exchange)
  kPowers,       ///< sparse: Engine::apply_op_powers with an MPK attached
  kPcApply,      ///< precond: Engine::apply_pc
  kDotPost,      ///< la: local dot_batch partials + posting the allreduce
  kDotWait,      ///< par: waiting for the allreduce result
  kServiceCall,  ///< service: AdmissionQueue::next_batch + Session call
  kQueueWait,    ///< service: submit -> start of the request's batch
  kSetupDist,    ///< sparse: Partition + per-rank DistCsr
  kSetupMpk,     ///< sparse: per-rank MatrixPowers closure
  kSetupPc,      ///< precond: diagonal + per-rank JacobiPreconditioner
  kTeamSpawn,    ///< par: PersistentTeam construction
};

const char* layer_name(Layer layer);

inline constexpr std::uint32_t kNoParent =
    std::numeric_limits<std::uint32_t>::max();

struct Span {
  double start = 0.0;  ///< seconds since the trace epoch
  double end = 0.0;
  std::uint64_t request = 0;  ///< head request id of the team run
  std::uint32_t parent = kNoParent;  ///< index of the parent in the same log
  std::uint32_t count = 0;  ///< dot pairs (kDotPost), powers (kPowers)
  Layer layer = Layer::kSolve;

  double seconds() const { return end - start; }
};

/// One track's spans.  Single writer: a rank thread writes only its own log.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  std::uint32_t add(const Span& span) {
    spans_.push_back(span);
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  Span& at(std::uint32_t index) { return spans_[index]; }
  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Engine decorator: forwards every layer call to `inner` and records a
/// child span of `parent` for it.  Vector kernels run in the Engine base
/// class on the same local vectors, so iterates are bitwise identical to
/// solving on `inner` directly.
class TimedEngine final : public pipescg::krylov::Engine {
 public:
  TimedEngine(pipescg::krylov::Engine& inner, SpanLog& log,
              std::uint64_t request, std::uint32_t parent)
      : inner_(inner), log_(log), request_(request), parent_(parent) {}

  std::size_t local_size() const override { return inner_.local_size(); }
  std::size_t global_size() const override { return inner_.global_size(); }
  bool has_preconditioner() const override {
    return inner_.has_preconditioner();
  }
  bool has_matrix_powers() const override {
    return inner_.has_matrix_powers();
  }

  void apply_op(const pipescg::krylov::Vec& x,
                pipescg::krylov::Vec& y) override;
  void apply_pc(const pipescg::krylov::Vec& r,
                pipescg::krylov::Vec& u) override;
  void apply_op_powers(const pipescg::krylov::Vec& x,
                       std::span<pipescg::krylov::Vec> outs) override;
  pipescg::krylov::DotHandle dot_post(
      std::span<const pipescg::krylov::DotPair> pairs,
      bool blocking = false) override;
  void dot_wait(pipescg::krylov::DotHandle& handle,
                std::span<double> out) override;
  void mark_iteration(std::uint64_t iter, double rnorm) override {
    inner_.mark_iteration(iter, rnorm);
  }

  /// Bytes the vector kernels moved, in global units (computed by the
  /// Engine base class from vector lengths, not measured).
  double vector_bytes() const { return vector_bytes_; }

 protected:
  void record_compute(double flops, double bytes) override {
    vector_bytes_ += bytes;
    inner_.charge(flops, bytes);
  }
  double global_scale() const override {
    return static_cast<double>(global_size()) /
           static_cast<double>(std::max<std::size_t>(local_size(), 1));
  }

 private:
  void record(Layer layer, double start, std::uint32_t count = 0);

  pipescg::krylov::Engine& inner_;
  SpanLog& log_;
  std::uint64_t request_;
  std::uint32_t parent_;
  double vector_bytes_ = 0.0;
};

/// The bench-owned copy of a Session's per-rank state, built from the same
/// public constructors and timed one constructor family at a time into
/// `setup_log`.
class Replica {
 public:
  Replica(const pipescg::sparse::CsrMatrix& a, bool mpk, SpanLog& setup_log,
          Clock::time_point epoch);

  /// Result of one team run.
  struct Run {
    std::vector<pipescg::krylov::SolveStats> stats;  ///< one per column
    std::vector<std::vector<double>> x;  ///< gathered iterate per column
    double wall_seconds = 0.0;  ///< team.run() on the calling thread
    double max_solve_seconds = 0.0;  ///< slowest rank's solve span
  };

  /// Solve `batch` (mutually batchable requests, head first) as one team
  /// run with the steps Session::solve_batch takes -- engine construction,
  /// scatter, solve, gather -- recording each rank's solve span and its
  /// child spans into rank_log(rank).
  Run run(std::span<const Request* const> batch);

  SpanLog& rank_log(int rank) {
    return rank_logs_[static_cast<std::size_t>(rank)];
  }
  /// Vector-kernel bytes (global units) accumulated on `rank`.
  double vector_bytes(int rank) const {
    return vector_bytes_[static_cast<std::size_t>(rank)];
  }
  void clear();

  const pipescg::sparse::DistCsr& dist(int rank) const {
    return *dist_[static_cast<std::size_t>(rank)];
  }

 private:
  pipescg::sparse::Partition partition_;
  std::vector<std::unique_ptr<pipescg::sparse::DistCsr>> dist_;
  std::vector<std::unique_ptr<pipescg::sparse::MatrixPowers>> mpk_;
  std::vector<std::unique_ptr<pipescg::precond::JacobiPreconditioner>> pc_;
  std::vector<SpanLog> rank_logs_;
  std::vector<double> vector_bytes_;
  std::vector<std::uint32_t> roots_;  // this run's solve span, per rank
  std::unique_ptr<pipescg::par::PersistentTeam> team_;
};

}  // namespace perfbench
