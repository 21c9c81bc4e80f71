// Workloads and the seeded request stream of the end-to-end benchmark.
//
// Every workload is a closed loop: each client waits for its solution before
// it sends the next request, the way a time-stepper calls a linear solver.
// All workloads share one convergence contract (2 ranks, rtol 1e-6, s = 3,
// default basis, CSR storage); they differ in operator size relative to the
// caches, in method, and in how many clients share the service.  The seed
// only changes the right-hand sides (b = A x*, x* drawn from the seed) and,
// on the mixed stream, which method each request asks for -- never the
// operator, so set-up cost is comparable across seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pipescg/krylov/solver.hpp"
#include "pipescg/service/session.hpp"
#include "pipescg/sparse/csr_matrix.hpp"

namespace perfbench {

inline constexpr int kRanks = 2;
inline constexpr int kS = 3;
inline constexpr double kRtol = 1e-6;
/// A served request fails when ||b - A x|| / ||b|| exceeds this times rtol.
inline constexpr double kResidualSlack = 10.0;

struct Workload {
  const char* name;
  /// Builds the operator (not part of the measured set-up time).
  pipescg::sparse::CsrMatrix (*make_matrix)();
  bool mpk;                 ///< build the matrix-powers closure in the Session
  /// Closed-loop clients, one request in flight each; so also the widest
  /// batch the queue can hand out.
  std::size_t clients;
  const char* method;       ///< method of most requests
  double pcg_share;         ///< share of requests sent to "pcg" instead
};

/// The workload called `name`; throws pipescg::Error for an unknown name.
const Workload& find_workload(const std::string& name);

struct Request {
  std::uint64_t id = 0;
  std::string method;
  std::vector<double> b;
};

/// Request `id` of a workload is a pure function of (seed, id): its method
/// (on the mixed stream) and x* come from the seeded generator's substream
/// `id`, and b = A x*.
class RequestStream {
 public:
  RequestStream(const Workload& workload, const pipescg::sparse::CsrMatrix& a,
                std::uint64_t seed)
      : workload_(workload), a_(a), seed_(seed) {}

  Request make(std::uint64_t id) const;

 private:
  const Workload& workload_;
  const pipescg::sparse::CsrMatrix& a_;
  std::uint64_t seed_;
};

/// Options every request carries.
pipescg::krylov::SolverOptions request_options();

/// The Session configuration of a workload.
pipescg::service::SessionConfig session_config(const Workload& workload);

/// ||b - A x||_2 / ||b||_2 with the global operator (CsrMatrix::apply).
double relative_residual(const pipescg::sparse::CsrMatrix& a,
                         std::span<const double> b,
                         std::span<const double> x);

/// Computed working set of one team run: the CSR arrays the SPMV streams
/// plus the vectors the solver allocates for the widest possible batch.
struct Footprint {
  std::size_t matrix_bytes = 0;
  std::size_t vector_bytes = 0;
};
Footprint footprint(const Workload& workload,
                    const pipescg::sparse::CsrMatrix& a);

/// FNV-1a digest of a request's method and right-hand-side bytes, chained
/// onto `digest`.
std::uint64_t digest_request(std::uint64_t digest, const Request& request);

}  // namespace perfbench
