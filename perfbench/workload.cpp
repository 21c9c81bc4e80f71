#include "workload.hpp"

#include <algorithm>
#include <cmath>

#include "pipescg/base/error.hpp"
#include "pipescg/base/rng.hpp"
#include "pipescg/sparse/poisson125.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace perfbench {

namespace {

using pipescg::sparse::CsrMatrix;

// 128 x 128 thermal2 surrogate: 16,384 unknowns whose matrix and PIPE-PsCG
// vectors fit in the L3 but not the L2, so the s-step vector and Gram work,
// not the SPMV, is the largest layer.
CsrMatrix thermal2_128() {
  return pipescg::sparse::make_thermal2_like(128, 128);
}

// 40^3 125-point Poisson: 64,000 rows, 7.3 M nonzeros, a CSR larger than the
// L3, so the solve is bound by SPMV memory traffic.
CsrMatrix poisson125_40() { return pipescg::sparse::make_poisson125_csr(40); }

// 40 x 40 thermal2 surrogate: 1,600 unknowns held in L1/L2.  A solve is a
// few milliseconds, so eight clients queue behind each other and the
// matrix-powers blocks of the batched s-step solves are its largest layer.
CsrMatrix thermal2_40() { return pipescg::sparse::make_thermal2_like(40, 40); }

const Workload kWorkloads[] = {
    {"thermal2-pipe-pscg", thermal2_128, false, 1, "pipe-pscg", 0.0},
    {"poisson125-pcg", poisson125_40, false, 1, "pcg", 0.0},
    {"thermal2-stream-batched", thermal2_40, true, 8, "scg-sspmv", 0.25},
};

// Vectors each method allocates at s = 3, counted from its driver's
// new_vec/new_block calls plus the right-hand side and iterate:
//   pcg        b, x, r, u, p, s, ax                                   =  7
//   pipe-pscg  b, x, 2 scratch, 2 gap, v/v' and w/w' (4 each), ev/ev' and
//              ew/ew' (3 each), p/p' (3 each), 4 towers of 4 x 3      = 88
//   scg-sspmv  per batched column: b, x, basis/basis' (4 each),
//              p/p' and ap/ap' (3 each)                               = 22
std::size_t vectors_per_column(const std::string& method) {
  if (method == "pcg") return 7;
  if (method == "pipe-pscg") return 88;
  if (method == "scg-sspmv") return 22;
  PIPESCG_FAIL("no vector count for method '" + method + "'");
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  std::string known;
  for (const Workload& w : kWorkloads) known += std::string(" ") + w.name;
  PIPESCG_FAIL("unknown workload '" + name + "'; known:" + known);
}

Request RequestStream::make(std::uint64_t id) const {
  pipescg::Rng rng = pipescg::Rng(seed_).split(id);
  Request req;
  req.id = id;
  // The method draw comes first so every request consumes the same number
  // of values regardless of the workload's mix.
  req.method = rng.next_double() < workload_.pcg_share ? "pcg"
                                                       : workload_.method;
  std::vector<double> xstar(a_.rows());
  for (double& v : xstar) v = rng.uniform(-1.0, 1.0);
  req.b.assign(a_.rows(), 0.0);
  a_.apply(xstar, req.b);
  return req;
}

pipescg::krylov::SolverOptions request_options() {
  pipescg::krylov::SolverOptions opts;
  opts.rtol = kRtol;
  opts.s = kS;
  return opts;
}

pipescg::service::SessionConfig session_config(const Workload& workload) {
  pipescg::service::SessionConfig config;
  config.ranks = kRanks;
  config.mpk = workload.mpk;
  config.s = kS;
  return config;
}

double relative_residual(const CsrMatrix& a, std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> ax(a.rows(), 0.0);
  a.apply(x, ax);
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const double r = b[i] - ax[i];
    rr += r * r;
    bb += b[i] * b[i];
  }
  return std::sqrt(rr) / std::sqrt(bb);
}

Footprint footprint(const Workload& workload, const CsrMatrix& a) {
  Footprint f;
  // values + int64 column indices per nonzero, int64 row pointers.
  f.matrix_bytes = a.nnz() * (sizeof(double) + sizeof(CsrMatrix::Index)) +
                   (a.rows() + 1) * sizeof(CsrMatrix::Index);
  std::size_t vectors =
      workload.clients * vectors_per_column(workload.method);
  if (workload.pcg_share > 0.0)
    vectors = std::max(vectors, vectors_per_column("pcg"));
  f.vector_bytes = vectors * a.rows() * sizeof(double);
  return f;
}

std::uint64_t digest_request(std::uint64_t digest, const Request& request) {
  auto mix = [&digest](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      digest ^= p[i];
      digest *= 0x100000001b3ull;
    }
  };
  mix(request.method.data(), request.method.size());
  mix(request.b.data(), request.b.size() * sizeof(double));
  return digest;
}

}  // namespace perfbench
