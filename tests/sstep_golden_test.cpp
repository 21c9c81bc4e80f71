// Golden outcomes of the s-step drivers.
//
// Pins, for every s-step method x basis x scenario x engine, the observable
// outcome of one solve: CG-equivalent iterations, residual replacements,
// recoveries, final s, gap checks, the convergence verdict and an FNV-1a
// digest of the solution's bits.  The table below must hold unchanged
// across any restructuring of the s-step machinery -- it is the only test
// that pins the recovery, gap-monitor and shifted-basis paths bitwise.
//
// Scenarios:  clean;  gap (a tight gap_tol that forces gap-triggered
// replacements and, on the pipelined methods, the degrade-s escalation);
// sdc (one bit flip in an SPMV output, detected and rolled back).
// Engines:    serial (SerialEngine, Jacobi for the preconditioned methods);
// spmd2 (2 ranks, Jacobi, matrix-powers kernel attached); spmd3 (3 ranks,
// no preconditioner, matrix-powers kernel attached, so the unpreconditioned
// interleaved chain fuses too).
//
// Exact digests rely on the same determinism BENCH_fig1's exact counters
// do: the default -O2 build with no -march.  On a mismatch the test prints
// the actual table row.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "pipescg/fault/injector.hpp"
#include "pipescg/fault/spec.hpp"
#include "pipescg/krylov/multi_rhs.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/serial_engine.hpp"
#include "pipescg/krylov/spmd_engine.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/matrix_powers.hpp"
#include "pipescg/sparse/partition.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace pipescg {
namespace {

using krylov::Engine;
using krylov::SolveStats;
using krylov::SolverOptions;
using krylov::Vec;

constexpr std::size_t kColumns = 3;  // multi-RHS batch width
constexpr const char* kMulti = "multi3";

// SerialEngine with the fault injector's SPMV/PC hooks, which only the SPMD
// engine carries: lets the sdc scenario run on the serial engine too.
class InjectingSerialEngine final : public Engine {
 public:
  explicit InjectingSerialEngine(krylov::SerialEngine& inner)
      : inner_(inner) {}

  std::size_t local_size() const override { return inner_.local_size(); }
  std::size_t global_size() const override { return inner_.global_size(); }
  bool has_preconditioner() const override {
    return inner_.has_preconditioner();
  }
  void apply_op(const Vec& x, Vec& y) override {
    inner_.apply_op(x, y);
    if (fault::Injector* inj = fault::Injector::current())
      inj->on_spmv(y.span());
  }
  void apply_pc(const Vec& r, Vec& u) override {
    inner_.apply_pc(r, u);
    if (has_preconditioner())
      if (fault::Injector* inj = fault::Injector::current())
        inj->on_pc(u.span());
  }
  krylov::DotHandle dot_post(std::span<const krylov::DotPair> pairs,
                             bool blocking) override {
    return inner_.dot_post(pairs, blocking);
  }
  void dot_wait(krylov::DotHandle& handle, std::span<double> out) override {
    inner_.dot_wait(handle, out);
  }
  void mark_iteration(std::uint64_t iter, double rnorm) override {
    inner_.mark_iteration(iter, rnorm);
  }

 protected:
  void record_compute(double flops, double bytes) override {
    inner_.charge(flops, bytes);
  }
  double global_scale() const override { return 1.0; }

 private:
  krylov::SerialEngine& inner_;
};

const sparse::CsrMatrix& problem() {
  static const sparse::CsrMatrix a = sparse::make_thermal2_like(12, 12);
  return a;
}

// b_j = A v_j with exactly representable, column-dependent v_j.
std::vector<double> rhs(std::size_t j) {
  const sparse::CsrMatrix& a = problem();
  std::vector<double> v(a.rows());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0 + static_cast<double>((i * (j + 3)) % 7) / 8.0;
  std::vector<double> b(a.rows(), 0.0);
  a.apply(v, b);
  return b;
}

SolverOptions scenario_options(const std::string& basis,
                               const std::string& scenario) {
  SolverOptions opts;
  opts.rtol = 1e-9;
  opts.s = 3;
  opts.max_iterations = 3000;
  opts.basis.type = krylov::parse_basis_type(basis);
  if (scenario == "gap") {
    opts.gap_tol = 1e-10;
    opts.gap_check_period = 2;
  }
  return opts;
}

std::vector<fault::FaultSpec> scenario_faults(const std::string& scenario) {
  if (scenario != "sdc") return {};
  return fault::parse_fault_specs("kind=sdc:target=spmv:iter=45:bit=61");
}

// Solve on one engine: single-RHS methods by name, kMulti through
// scg_multi_solve.  xs arrives zeroed; stats gets one entry per column.
std::vector<SolveStats> run_method(const std::string& method, Engine& engine,
                                   std::span<const Vec> bs, std::span<Vec> xs,
                                   const SolverOptions& opts) {
  if (method == kMulti) return krylov::scg_multi_solve(engine, bs, xs, opts);
  return {krylov::make_solver(method)->solve(engine, bs[0], xs[0], opts)};
}

bool uses_pc(const std::string& method) {
  return method != kMulti && krylov::solver_uses_preconditioner(method);
}

struct Run {
  std::vector<SolveStats> stats;
  std::vector<std::vector<double>> x;  // global solution per column
};

Run run_serial(const std::string& method, const SolverOptions& opts,
               const std::vector<fault::FaultSpec>& faults) {
  const sparse::CsrMatrix& a = problem();
  const std::size_t cols = method == kMulti ? kColumns : 1;
  precond::JacobiPreconditioner pc(a);
  krylov::SerialEngine serial(a, uses_pc(method) ? &pc : nullptr);
  InjectingSerialEngine engine(serial);
  fault::Injector injector(faults, 0);
  const fault::Injector::Install install(faults.empty() ? nullptr
                                                        : &injector);
  std::vector<Vec> bs, xs;
  for (std::size_t j = 0; j < cols; ++j) {
    const std::vector<double> bj = rhs(j);
    bs.push_back(engine.new_vec());
    std::memcpy(bs.back().data(), bj.data(), bj.size() * sizeof(double));
    xs.push_back(engine.new_vec());
  }
  Run run;
  run.stats = run_method(method, engine, bs, xs, opts);
  for (const Vec& x : xs) run.x.emplace_back(x.data(), x.data() + x.size());
  return run;
}

Run run_spmd(const std::string& method, const SolverOptions& opts,
             const std::vector<fault::FaultSpec>& faults, int ranks,
             bool with_pc) {
  const sparse::CsrMatrix& a = problem();
  const std::size_t n = a.rows();
  const std::size_t cols = method == kMulti ? kColumns : 1;
  const sparse::Partition part(n, ranks);
  Run run;
  run.x.assign(cols, std::vector<double>(n, 0.0));
  std::mutex mutex;
  par::Team::run(ranks, [&](par::Comm& comm) {
    fault::Injector injector(faults, comm.rank());
    const fault::Injector::Install install(faults.empty() ? nullptr
                                                          : &injector);
    const sparse::DistCsr dist(a, part, comm.rank());
    const sparse::MatrixPowers mpk(a, part, comm.rank(), opts.s);
    const std::size_t begin = part.begin(comm.rank());
    const std::size_t len = part.local_size(comm.rank());
    const std::vector<double> diag = a.diagonal();
    precond::JacobiPreconditioner pc(
        std::vector<double>(diag.begin() + static_cast<std::ptrdiff_t>(begin),
                            diag.begin() +
                                static_cast<std::ptrdiff_t>(begin + len)),
        a.stats());
    krylov::SpmdEngine engine(comm, dist,
                              with_pc && uses_pc(method) ? &pc : nullptr,
                              nullptr, &mpk);
    std::vector<Vec> bs, xs;
    for (std::size_t j = 0; j < cols; ++j) {
      const std::vector<double> bj = rhs(j);
      bs.push_back(engine.new_vec());
      std::memcpy(bs.back().data(), bj.data() + begin, len * sizeof(double));
      xs.push_back(engine.new_vec());
    }
    const std::vector<SolveStats> stats =
        run_method(method, engine, bs, xs, opts);
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t j = 0; j < cols; ++j)
      std::memcpy(run.x[j].data() + begin, xs[j].data(),
                  len * sizeof(double));
    if (comm.rank() == 0) run.stats = stats;
  });
  return run;
}

std::uint64_t fnv1a(const std::vector<double>& x) {
  std::uint64_t h = 1469598103934665603ull;
  for (double v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// One table row: per column "it rep rec s gap conv digest", '|'-joined.
std::string record(const Run& run) {
  std::string out;
  for (std::size_t j = 0; j < run.stats.size(); ++j) {
    const SolveStats& st = run.stats[j];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%sit=%zu rep=%zu rec=%zu s=%d gap=%zu %s %016llx",
                  j == 0 ? "" : " | ", st.iterations, st.replacements,
                  st.recoveries, st.final_s, st.gap_checks,
                  st.converged ? "conv" : "fail",
                  static_cast<unsigned long long>(fnv1a(run.x[j])));
    out += buf;
  }
  return out;
}

// One row per case; change a row only for an intended change of outcome.
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> table = {
      {"scg-sspmv/monomial/clean/serial",
       "it=99 rep=0 rec=0 s=3 gap=0 conv eae4467488fcc092"},
      {"scg-sspmv/monomial/gap/serial",
       "it=102 rep=7 rec=2 s=1 gap=20 conv 457b307d78cc8eb6"},
      {"scg-sspmv/monomial/sdc/serial",
       "it=120 rep=0 rec=1 s=3 gap=0 conv df4a91ac4c2b3467"},
      {"scg-sspmv/newton/clean/serial",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 9704af14e199b1f9"},
      {"scg-sspmv/newton/gap/serial",
       "it=95 rep=2 rec=1 s=2 gap=16 conv 4c392654b2afabc3"},
      {"scg-sspmv/newton/sdc/serial",
       "it=114 rep=0 rec=1 s=3 gap=0 conv 3c470f11dfa21dd2"},
      {"scg-sspmv/chebyshev/clean/serial",
       "it=93 rep=0 rec=0 s=3 gap=0 conv 23b2e1a6093e0ac3"},
      {"scg-sspmv/chebyshev/gap/serial",
       "it=95 rep=3 rec=1 s=2 gap=16 conv 1524ddaa35187c2d"},
      {"scg-sspmv/chebyshev/sdc/serial",
       "it=117 rep=0 rec=1 s=3 gap=0 conv 108af9aa8d3b2df1"},
      {"pipe-scg/monomial/clean/serial",
       "it=267 rep=5 rec=0 s=3 gap=0 conv a585af3281358847"},
      {"pipe-scg/monomial/gap/serial",
       "it=125 rep=18 rec=5 s=1 gap=37 conv 71b0f803a9110c95"},
      {"pipe-scg/monomial/sdc/serial",
       "it=129 rep=2 rec=1 s=3 gap=0 conv a221425ea63d4959"},
      {"pipe-scg/newton/clean/serial",
       "it=102 rep=1 rec=1 s=3 gap=0 conv 87ec71e80cc76f77"},
      {"pipe-scg/newton/gap/serial",
       "it=119 rep=20 rec=8 s=1 gap=41 fail 080a1ff91c9c686f"},
      {"pipe-scg/newton/sdc/serial",
       "it=117 rep=1 rec=1 s=3 gap=0 conv 8a6ef9715a9ef760"},
      {"pipe-scg/chebyshev/clean/serial",
       "it=99 rep=2 rec=1 s=3 gap=0 conv c1f94b5bec1b8bfa"},
      {"pipe-scg/chebyshev/gap/serial",
       "it=104 rep=11 rec=4 s=1 gap=25 conv b42a71779fc2c72c"},
      {"pipe-scg/chebyshev/sdc/serial",
       "it=126 rep=2 rec=1 s=3 gap=0 conv 46533a6c3237a16e"},
      {"pipe-pscg/monomial/clean/serial",
       "it=54 rep=0 rec=1 s=3 gap=0 conv 1a57785eeb89e4f9"},
      {"pipe-pscg/monomial/gap/serial",
       "it=63 rep=7 rec=3 s=1 gap=16 conv f9ff46f60c9a0df8"},
      {"pipe-pscg/monomial/sdc/serial",
       "it=54 rep=0 rec=1 s=3 gap=0 conv d8543f8a784da4d1"},
      {"pipe-pscg/newton/clean/serial",
       "it=48 rep=0 rec=0 s=3 gap=0 conv 3c3c1f56f1924b1c"},
      {"pipe-pscg/newton/gap/serial",
       "it=47 rep=2 rec=1 s=2 gap=8 conv 7f7746a252ac68ec"},
      {"pipe-pscg/newton/sdc/serial",
       "it=60 rep=0 rec=1 s=3 gap=0 conv dc3a93ed55c82440"},
      {"pipe-pscg/chebyshev/clean/serial",
       "it=48 rep=0 rec=0 s=3 gap=0 conv 5e53e969739f5718"},
      {"pipe-pscg/chebyshev/gap/serial",
       "it=48 rep=1 rec=0 s=3 gap=8 conv e4f2f1350957791d"},
      {"pipe-pscg/chebyshev/sdc/serial",
       "it=66 rep=0 rec=1 s=3 gap=0 conv a71d31b265568fef"},
      {"pipecg-oati/monomial/clean/serial",
       "it=48 rep=5 rec=0 s=2 gap=0 conv 91fea54188a40722"},
      {"pipecg-oati/monomial/gap/serial",
       "it=47 rep=6 rec=1 s=1 gap=12 conv 49466c393e784cac"},
      {"pipecg-oati/monomial/sdc/serial",
       "it=54 rep=5 rec=1 s=2 gap=0 conv 622e6ee77884fe5b"},
      {"pipecg-oati/newton/clean/serial",
       "it=48 rep=5 rec=0 s=2 gap=0 conv a8133854fce5a0cd"},
      {"pipecg-oati/newton/gap/serial",
       "it=47 rep=6 rec=1 s=1 gap=12 conv 96f3784b530c924b"},
      {"pipecg-oati/newton/sdc/serial",
       "it=62 rep=7 rec=1 s=2 gap=0 conv 8d07bf5dd6c8762d"},
      {"pipecg-oati/chebyshev/clean/serial",
       "it=48 rep=5 rec=0 s=2 gap=0 conv accad80de5e53c52"},
      {"pipecg-oati/chebyshev/gap/serial",
       "it=47 rep=6 rec=1 s=1 gap=12 conv b35b028d75263422"},
      {"pipecg-oati/chebyshev/sdc/serial",
       "it=62 rep=7 rec=1 s=2 gap=0 conv 2b95efa224587b2a"},
      {"pipecg3/monomial/clean/serial",
       "it=48 rep=2 rec=0 s=2 gap=0 conv 89df9ce12ab99ea5"},
      {"pipecg3/monomial/gap/serial",
       "it=47 rep=5 rec=1 s=1 gap=12 conv 9203c54bd0924529"},
      {"pipecg3/monomial/sdc/serial",
       "it=52 rep=2 rec=1 s=2 gap=0 conv 6a06cda7adf108dc"},
      {"pipecg3/newton/clean/serial",
       "it=48 rep=2 rec=0 s=2 gap=0 conv 6efaf795ddc0a61b"},
      {"pipecg3/newton/gap/serial",
       "it=47 rep=4 rec=1 s=1 gap=12 conv f920d87ee95708b8"},
      {"pipecg3/newton/sdc/serial",
       "it=62 rep=3 rec=1 s=2 gap=0 conv d062544aeac0a9ea"},
      {"pipecg3/chebyshev/clean/serial",
       "it=48 rep=2 rec=0 s=2 gap=0 conv 05ad7db25e0c11c4"},
      {"pipecg3/chebyshev/gap/serial",
       "it=48 rep=3 rec=0 s=2 gap=12 conv a1e49b5937ee10ed"},
      {"pipecg3/chebyshev/sdc/serial",
       "it=64 rep=3 rec=1 s=2 gap=0 conv 72a11c9835df7b27"},
      {"hybrid/monomial/clean/serial",
       "it=48 rep=3 rec=0 s=3 gap=0 conv 2aaac507278cb40e"},
      {"hybrid/monomial/gap/serial",
       "it=73 rep=21 rec=8 s=1 gap=33 fail f15cc73490aebfc8"},
      {"hybrid/monomial/sdc/serial",
       "it=57 rep=3 rec=1 s=3 gap=0 conv 31289fe0393d9c91"},
      {"hybrid/newton/clean/serial",
       "it=48 rep=3 rec=0 s=3 gap=0 conv b75bec390919cf79"},
      {"hybrid/newton/gap/serial",
       "it=48 rep=4 rec=0 s=3 gap=8 conv b4739b5195afbcbd"},
      {"hybrid/newton/sdc/serial",
       "it=63 rep=5 rec=1 s=3 gap=0 conv a08013d71ea51f14"},
      {"hybrid/chebyshev/clean/serial",
       "it=48 rep=3 rec=0 s=3 gap=0 conv 8da9c18702a67c1f"},
      {"hybrid/chebyshev/gap/serial",
       "it=48 rep=4 rec=0 s=3 gap=8 conv 78deffb10418e517"},
      {"hybrid/chebyshev/sdc/serial",
       "it=63 rep=5 rec=1 s=3 gap=0 conv 50ac726242adfd75"},
      {"multi3/monomial/clean/serial",
       "it=99 rep=0 rec=0 s=3 gap=0 conv eae4467488fcc092 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv e38a1a4ab923442f | "
       "it=99 rep=0 rec=0 s=3 gap=0 conv 51f1e3ef7939275c"},
      {"multi3/monomial/gap/serial",
       "it=99 rep=0 rec=0 s=3 gap=0 conv eae4467488fcc092 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv e38a1a4ab923442f | "
       "it=99 rep=0 rec=0 s=3 gap=0 conv 51f1e3ef7939275c"},
      {"multi3/monomial/sdc/serial",
       "it=99 rep=0 rec=0 s=3 gap=0 conv eae4467488fcc092 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv e38a1a4ab923442f | "
       "it=12 rep=0 rec=0 s=3 gap=0 fail a317f09e8d4dbd9e"},
      {"multi3/newton/clean/serial",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 9704af14e199b1f9 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 5863e2e358aaba16 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv c6d1517081abbb4e"},
      {"multi3/newton/gap/serial",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 9704af14e199b1f9 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 5863e2e358aaba16 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv c6d1517081abbb4e"},
      {"multi3/newton/sdc/serial",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 9704af14e199b1f9 | "
       "it=9 rep=0 rec=0 s=3 gap=0 fail 5807681decaca4dc | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv c6d1517081abbb4e"},
      {"multi3/chebyshev/clean/serial",
       "it=93 rep=0 rec=0 s=3 gap=0 conv 23b2e1a6093e0ac3 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 19242161dcd7f0ca | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 43ea0c01a2b67583"},
      {"multi3/chebyshev/gap/serial",
       "it=93 rep=0 rec=0 s=3 gap=0 conv 23b2e1a6093e0ac3 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 19242161dcd7f0ca | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 43ea0c01a2b67583"},
      {"multi3/chebyshev/sdc/serial",
       "it=93 rep=0 rec=0 s=3 gap=0 conv 23b2e1a6093e0ac3 | "
       "it=9 rep=0 rec=0 s=3 gap=0 fail e155314f4186f074 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 43ea0c01a2b67583"},
      {"scg-sspmv/monomial/clean/spmd2",
       "it=102 rep=0 rec=0 s=3 gap=0 conv f598745cf1d383c5"},
      {"scg-sspmv/monomial/gap/spmd2",
       "it=103 rep=5 rec=1 s=2 gap=18 conv e41f140f3fdcc4ed"},
      {"scg-sspmv/monomial/sdc/spmd2",
       "it=120 rep=0 rec=1 s=3 gap=0 conv 9e0e337d668a8558"},
      {"scg-sspmv/newton/clean/spmd2",
       "it=96 rep=0 rec=0 s=3 gap=0 conv e9c283057d6cf6b5"},
      {"scg-sspmv/newton/gap/spmd2",
       "it=98 rep=4 rec=2 s=1 gap=18 conv d5f11f5686917c2e"},
      {"scg-sspmv/newton/sdc/spmd2",
       "it=114 rep=0 rec=1 s=3 gap=0 conv ab591441e75c1949"},
      {"scg-sspmv/chebyshev/clean/spmd2",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 004622ccd73997be"},
      {"scg-sspmv/chebyshev/gap/spmd2",
       "it=103 rep=9 rec=4 s=1 gap=25 conv 9041405d85e89623"},
      {"scg-sspmv/chebyshev/sdc/spmd2",
       "it=114 rep=0 rec=1 s=3 gap=0 conv 894cdcfb2a97c747"},
      {"pipe-scg/monomial/clean/spmd2",
       "it=231 rep=5 rec=0 s=3 gap=0 conv 09dd9c31c1ff3eea"},
      {"pipe-scg/monomial/gap/spmd2",
       "it=131 rep=23 rec=8 s=1 gap=44 fail c4a6f85536084d07"},
      {"pipe-scg/monomial/sdc/spmd2",
       "it=129 rep=1 rec=1 s=3 gap=0 conv 225220e7d2fad361"},
      {"pipe-scg/newton/clean/spmd2",
       "it=102 rep=2 rec=0 s=3 gap=0 conv effab44e72cadf25"},
      {"pipe-scg/newton/gap/spmd2",
       "it=115 rep=20 rec=8 s=1 gap=37 fail 7e49839640f5a0f5"},
      {"pipe-scg/newton/sdc/spmd2",
       "it=114 rep=1 rec=1 s=3 gap=0 conv 4c3838f3e5d948e4"},
      {"pipe-scg/chebyshev/clean/spmd2",
       "it=102 rep=2 rec=1 s=3 gap=0 conv 5ee6b9f797cd502d"},
      {"pipe-scg/chebyshev/gap/spmd2",
       "it=116 rep=19 rec=8 s=1 gap=37 fail ce227afe0a557b24"},
      {"pipe-scg/chebyshev/sdc/spmd2",
       "it=129 rep=2 rec=1 s=3 gap=0 conv d2048c1b3551907b"},
      {"pipe-pscg/monomial/clean/spmd2",
       "it=57 rep=1 rec=1 s=3 gap=0 conv 5f9538d855acbb6c"},
      {"pipe-pscg/monomial/gap/spmd2",
       "it=72 rep=14 rec=6 s=1 gap=26 conv d3519d6d50b7575a"},
      {"pipe-pscg/monomial/sdc/spmd2",
       "it=54 rep=0 rec=1 s=3 gap=0 conv 526d58aa5e3eccce"},
      {"pipe-pscg/newton/clean/spmd2",
       "it=48 rep=0 rec=0 s=3 gap=0 conv 156eb6db5d3e36b1"},
      {"pipe-pscg/newton/gap/spmd2",
       "it=48 rep=1 rec=0 s=3 gap=8 conv 10eac912a7afc7b2"},
      {"pipe-pscg/newton/sdc/spmd2",
       "it=60 rep=0 rec=1 s=3 gap=0 conv 5e6fd73bbc123bf8"},
      {"pipe-pscg/chebyshev/clean/spmd2",
       "it=48 rep=0 rec=0 s=3 gap=0 conv b52dea98ccc8a73a"},
      {"pipe-pscg/chebyshev/gap/spmd2",
       "it=48 rep=1 rec=0 s=3 gap=8 conv a4486f696e079f39"},
      {"pipe-pscg/chebyshev/sdc/spmd2",
       "it=66 rep=0 rec=1 s=3 gap=0 conv 495ea0e026a67fb2"},
      {"pipecg-oati/monomial/clean/spmd2",
       "it=48 rep=5 rec=0 s=2 gap=0 conv c8b65e8dae01fac1"},
      {"pipecg-oati/monomial/gap/spmd2",
       "it=47 rep=6 rec=1 s=1 gap=12 conv 91d815ab5929a3e2"},
      {"pipecg-oati/monomial/sdc/spmd2",
       "it=54 rep=5 rec=1 s=2 gap=0 conv 77f23eb2cf76b5f7"},
      {"pipecg-oati/newton/clean/spmd2",
       "it=48 rep=5 rec=0 s=2 gap=0 conv 73abf46836de7cad"},
      {"pipecg-oati/newton/gap/spmd2",
       "it=48 rep=6 rec=0 s=2 gap=12 conv 9e2ff0f126ace03c"},
      {"pipecg-oati/newton/sdc/spmd2",
       "it=62 rep=7 rec=1 s=2 gap=0 conv d26fcf3e2776b750"},
      {"pipecg-oati/chebyshev/clean/spmd2",
       "it=48 rep=5 rec=0 s=2 gap=0 conv ff53bdece3157413"},
      {"pipecg-oati/chebyshev/gap/spmd2",
       "it=48 rep=6 rec=0 s=2 gap=12 conv 79f1b61b8d205798"},
      {"pipecg-oati/chebyshev/sdc/spmd2",
       "it=62 rep=7 rec=1 s=2 gap=0 conv 68b26643a77ad130"},
      {"pipecg3/monomial/clean/spmd2",
       "it=48 rep=2 rec=0 s=2 gap=0 conv 33f04a1ddee5ab6b"},
      {"pipecg3/monomial/gap/spmd2",
       "it=47 rep=5 rec=1 s=1 gap=12 conv 41b61ba0f34f81f8"},
      {"pipecg3/monomial/sdc/spmd2",
       "it=52 rep=2 rec=1 s=2 gap=0 conv 16241f0e469610cf"},
      {"pipecg3/newton/clean/spmd2",
       "it=48 rep=2 rec=0 s=2 gap=0 conv 6c36add98a4e8f7a"},
      {"pipecg3/newton/gap/spmd2",
       "it=48 rep=3 rec=0 s=2 gap=12 conv d543682698002c36"},
      {"pipecg3/newton/sdc/spmd2",
       "it=62 rep=3 rec=1 s=2 gap=0 conv 9e088348c74ca78a"},
      {"pipecg3/chebyshev/clean/spmd2",
       "it=48 rep=2 rec=0 s=2 gap=0 conv 6e7e1e4a652a6f21"},
      {"pipecg3/chebyshev/gap/spmd2",
       "it=48 rep=3 rec=0 s=2 gap=12 conv 3bf7c568c91f492c"},
      {"pipecg3/chebyshev/sdc/spmd2",
       "it=64 rep=3 rec=1 s=2 gap=0 conv 6283e471df6f8e2b"},
      {"hybrid/monomial/clean/spmd2",
       "it=48 rep=3 rec=0 s=3 gap=0 conv 08683c23fe1f48cd"},
      {"hybrid/monomial/gap/spmd2",
       "it=52 rep=8 rec=2 s=1 gap=11 conv cada54e111b92c71"},
      {"hybrid/monomial/sdc/spmd2",
       "it=57 rep=3 rec=1 s=3 gap=0 conv 61b5c2c6957981ad"},
      {"hybrid/newton/clean/spmd2",
       "it=48 rep=3 rec=0 s=3 gap=0 conv 4bde80359501cd9f"},
      {"hybrid/newton/gap/spmd2",
       "it=48 rep=4 rec=0 s=3 gap=8 conv a22a4b5b814d2253"},
      {"hybrid/newton/sdc/spmd2",
       "it=63 rep=5 rec=1 s=3 gap=0 conv 37e703160f9155c6"},
      {"hybrid/chebyshev/clean/spmd2",
       "it=48 rep=3 rec=0 s=3 gap=0 conv 3d3b9e53b43b383b"},
      {"hybrid/chebyshev/gap/spmd2",
       "it=48 rep=4 rec=0 s=3 gap=8 conv 609c5d971cbe439a"},
      {"hybrid/chebyshev/sdc/spmd2",
       "it=63 rep=5 rec=1 s=3 gap=0 conv bf6901801ae856a1"},
      {"multi3/monomial/clean/spmd2",
       "it=102 rep=0 rec=0 s=3 gap=0 conv f598745cf1d383c5 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 10089d6eff0039c7 | "
       "it=99 rep=0 rec=0 s=3 gap=0 conv 96805b5215a460af"},
      {"multi3/monomial/gap/spmd2",
       "it=102 rep=0 rec=0 s=3 gap=0 conv f598745cf1d383c5 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 10089d6eff0039c7 | "
       "it=99 rep=0 rec=0 s=3 gap=0 conv 96805b5215a460af"},
      {"multi3/monomial/sdc/spmd2",
       "it=102 rep=0 rec=0 s=3 gap=0 conv f598745cf1d383c5 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 10089d6eff0039c7 | "
       "it=12 rep=0 rec=0 s=3 gap=0 fail 72d1d861357934d2"},
      {"multi3/newton/clean/spmd2",
       "it=96 rep=0 rec=0 s=3 gap=0 conv e9c283057d6cf6b5 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 9c031f0fa0eded69 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv b6c79d907450f463"},
      {"multi3/newton/gap/spmd2",
       "it=96 rep=0 rec=0 s=3 gap=0 conv e9c283057d6cf6b5 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 9c031f0fa0eded69 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv b6c79d907450f463"},
      {"multi3/newton/sdc/spmd2",
       "it=96 rep=0 rec=0 s=3 gap=0 conv e9c283057d6cf6b5 | "
       "it=9 rep=0 rec=0 s=3 gap=0 fail cf0d552766ca72a4 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv b6c79d907450f463"},
      {"multi3/chebyshev/clean/spmd2",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 004622ccd73997be | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 028546a06d0bf61e | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 7e0cfcb18f43c6e5"},
      {"multi3/chebyshev/gap/spmd2",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 004622ccd73997be | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 028546a06d0bf61e | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 7e0cfcb18f43c6e5"},
      {"multi3/chebyshev/sdc/spmd2",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 004622ccd73997be | "
       "it=9 rep=0 rec=0 s=3 gap=0 fail d349e127a2263c44 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 7e0cfcb18f43c6e5"},
      {"scg-sspmv/monomial/clean/spmd3",
       "it=102 rep=0 rec=0 s=3 gap=0 conv 590a234baee05d81"},
      {"scg-sspmv/monomial/gap/spmd3",
       "it=102 rep=7 rec=2 s=1 gap=20 conv 6f18ef4ec5ed2731"},
      {"scg-sspmv/monomial/sdc/spmd3",
       "it=120 rep=0 rec=1 s=3 gap=0 conv 1f30efad78fc3887"},
      {"scg-sspmv/newton/clean/spmd3",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 4a7f46a8865555f4"},
      {"scg-sspmv/newton/gap/spmd3",
       "it=101 rep=9 rec=4 s=1 gap=25 conv 6469885506031084"},
      {"scg-sspmv/newton/sdc/spmd3",
       "it=114 rep=0 rec=1 s=3 gap=0 conv 48430f43e83634ee"},
      {"scg-sspmv/chebyshev/clean/spmd3",
       "it=96 rep=0 rec=0 s=3 gap=0 conv df27ca0f93350697"},
      {"scg-sspmv/chebyshev/gap/spmd3",
       "it=98 rep=4 rec=2 s=1 gap=18 conv be652ee817e29292"},
      {"scg-sspmv/chebyshev/sdc/spmd3",
       "it=114 rep=0 rec=1 s=3 gap=0 conv f2bae43d243b4a9d"},
      {"pipe-scg/monomial/clean/spmd3",
       "it=243 rep=6 rec=0 s=3 gap=0 conv da496a2b38a043ff"},
      {"pipe-scg/monomial/gap/spmd3",
       "it=133 rep=24 rec=8 s=1 gap=48 fail ec3da927d5bbed28"},
      {"pipe-scg/monomial/sdc/spmd3",
       "it=132 rep=2 rec=1 s=3 gap=0 conv 2eeda1db7a27f7d6"},
      {"pipe-scg/newton/clean/spmd3",
       "it=105 rep=1 rec=1 s=3 gap=0 conv fce3be1dd94b5333"},
      {"pipe-scg/newton/gap/spmd3",
       "it=117 rep=18 rec=7 s=1 gap=36 conv 71379ac7e00ff38e"},
      {"pipe-scg/newton/sdc/spmd3",
       "it=114 rep=1 rec=1 s=3 gap=0 conv 7027ad6222ec08ef"},
      {"pipe-scg/chebyshev/clean/spmd3",
       "it=99 rep=2 rec=1 s=3 gap=0 conv 076d5cad27b49972"},
      {"pipe-scg/chebyshev/gap/spmd3",
       "it=103 rep=10 rec=4 s=1 gap=25 conv 8fc2c7687e9b2849"},
      {"pipe-scg/chebyshev/sdc/spmd3",
       "it=126 rep=2 rec=1 s=3 gap=0 conv 645a77267df6bb4f"},
      {"pipe-pscg/monomial/clean/spmd3",
       "it=243 rep=6 rec=0 s=3 gap=0 conv da496a2b38a043ff"},
      {"pipe-pscg/monomial/gap/spmd3",
       "it=133 rep=24 rec=8 s=1 gap=48 fail ec3da927d5bbed28"},
      {"pipe-pscg/monomial/sdc/spmd3",
       "it=132 rep=2 rec=1 s=3 gap=0 conv 2eeda1db7a27f7d6"},
      {"pipe-pscg/newton/clean/spmd3",
       "it=105 rep=1 rec=1 s=3 gap=0 conv fce3be1dd94b5333"},
      {"pipe-pscg/newton/gap/spmd3",
       "it=117 rep=18 rec=7 s=1 gap=36 conv 71379ac7e00ff38e"},
      {"pipe-pscg/newton/sdc/spmd3",
       "it=114 rep=1 rec=1 s=3 gap=0 conv 7027ad6222ec08ef"},
      {"pipe-pscg/chebyshev/clean/spmd3",
       "it=99 rep=2 rec=1 s=3 gap=0 conv 076d5cad27b49972"},
      {"pipe-pscg/chebyshev/gap/spmd3",
       "it=103 rep=10 rec=4 s=1 gap=25 conv 8fc2c7687e9b2849"},
      {"pipe-pscg/chebyshev/sdc/spmd3",
       "it=126 rep=2 rec=1 s=3 gap=0 conv 645a77267df6bb4f"},
      {"pipecg-oati/monomial/clean/spmd3",
       "it=100 rep=12 rec=0 s=2 gap=0 conv dbd9874aabefce52"},
      {"pipecg-oati/monomial/gap/spmd3",
       "it=119 rep=28 rec=8 s=1 gap=52 fail 49318342a0f65304"},
      {"pipecg-oati/monomial/sdc/spmd3",
       "it=116 rep=14 rec=1 s=2 gap=0 conv c087f853c2e376a2"},
      {"pipecg-oati/newton/clean/spmd3",
       "it=96 rep=11 rec=0 s=2 gap=0 conv d78fa40dc159540c"},
      {"pipecg-oati/newton/gap/spmd3",
       "it=110 rep=24 rec=7 s=1 gap=41 conv 681e44f3fcb096b9"},
      {"pipecg-oati/newton/sdc/spmd3",
       "it=114 rep=14 rec=1 s=2 gap=0 conv c307d8b2ebd4581c"},
      {"pipecg-oati/chebyshev/clean/spmd3",
       "it=94 rep=11 rec=0 s=2 gap=0 conv c6fad1cd6960ddb1"},
      {"pipecg-oati/chebyshev/gap/spmd3",
       "it=99 rep=16 rec=3 s=1 gap=30 conv f694ca0b50777af1"},
      {"pipecg-oati/chebyshev/sdc/spmd3",
       "it=110 rep=13 rec=1 s=2 gap=0 conv 767963f10ea119c2"},
      {"pipecg3/monomial/clean/spmd3",
       "it=106 rep=6 rec=0 s=2 gap=0 conv b9b267ac6ec45861"},
      {"pipecg3/monomial/gap/spmd3",
       "it=109 rep=19 rec=4 s=1 gap=34 conv ac477e2b30df6fe2"},
      {"pipecg3/monomial/sdc/spmd3",
       "it=120 rep=7 rec=1 s=2 gap=0 conv f6d0a1b42311abb8"},
      {"pipecg3/newton/clean/spmd3",
       "it=102 rep=6 rec=0 s=2 gap=0 conv 1f8d243b47b5a7dc"},
      {"pipecg3/newton/gap/spmd3",
       "it=120 rep=22 rec=6 s=1 gap=47 conv 3bc21dae69e2cf48"},
      {"pipecg3/newton/sdc/spmd3",
       "it=112 rep=6 rec=1 s=2 gap=0 conv 1a6732651c4f7c5c"},
      {"pipecg3/chebyshev/clean/spmd3",
       "it=96 rep=5 rec=0 s=2 gap=0 conv cbef49b33430dc40"},
      {"pipecg3/chebyshev/gap/spmd3",
       "it=112 rep=20 rec=8 s=1 gap=42 conv d6e52b55ef1bf97a"},
      {"pipecg3/chebyshev/sdc/spmd3",
       "it=116 rep=6 rec=1 s=2 gap=0 conv 0b4e995f41de052d"},
      {"hybrid/monomial/clean/spmd3",
       "it=144 rep=11 rec=0 s=3 gap=0 conv 585a88267dc551b3"},
      {"hybrid/monomial/gap/spmd3",
       "it=131 rep=26 rec=8 s=1 gap=44 conv 835eebc00256950a"},
      {"hybrid/monomial/sdc/spmd3",
       "it=120 rep=9 rec=1 s=3 gap=0 conv 8d2b87ff7fd01ccd"},
      {"hybrid/newton/clean/spmd3",
       "it=126 rep=10 rec=1 s=3 gap=0 conv d86022253b05b74d"},
      {"hybrid/newton/gap/spmd3",
       "it=120 rep=25 rec=8 s=1 gap=40 fail da8741922e2ce81c"},
      {"hybrid/newton/sdc/spmd3",
       "it=111 rep=9 rec=1 s=3 gap=0 conv f4988712b17e2716"},
      {"hybrid/chebyshev/clean/spmd3",
       "it=96 rep=7 rec=0 s=3 gap=0 conv 01b9ee2cb72def6c"},
      {"hybrid/chebyshev/gap/spmd3",
       "it=97 rep=8 rec=1 s=2 gap=17 conv f5cc92f51b1e6cc0"},
      {"hybrid/chebyshev/sdc/spmd3",
       "it=114 rep=9 rec=1 s=3 gap=0 conv e446ae0afa4db6cc"},
      {"multi3/monomial/clean/spmd3",
       "it=102 rep=0 rec=0 s=3 gap=0 conv 590a234baee05d81 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 3dfad4154aa5184b | "
       "it=99 rep=0 rec=0 s=3 gap=0 conv 9343f84717ca8a89"},
      {"multi3/monomial/gap/spmd3",
       "it=102 rep=0 rec=0 s=3 gap=0 conv 590a234baee05d81 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 3dfad4154aa5184b | "
       "it=99 rep=0 rec=0 s=3 gap=0 conv 9343f84717ca8a89"},
      {"multi3/monomial/sdc/spmd3",
       "it=102 rep=0 rec=0 s=3 gap=0 conv 590a234baee05d81 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 3dfad4154aa5184b | "
       "it=12 rep=0 rec=0 s=3 gap=0 fail cc4ae068a3836282"},
      {"multi3/newton/clean/spmd3",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 4a7f46a8865555f4 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 52029e85cfc3a5f4 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 50876b1e57ab38b9"},
      {"multi3/newton/gap/spmd3",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 4a7f46a8865555f4 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 52029e85cfc3a5f4 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 50876b1e57ab38b9"},
      {"multi3/newton/sdc/spmd3",
       "it=96 rep=0 rec=0 s=3 gap=0 conv 4a7f46a8865555f4 | "
       "it=9 rep=0 rec=0 s=3 gap=0 fail b648c576f21fb668 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 50876b1e57ab38b9"},
      {"multi3/chebyshev/clean/spmd3",
       "it=96 rep=0 rec=0 s=3 gap=0 conv df27ca0f93350697 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 7e6a80b1ebd22d47 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv b9a166df65b3241d"},
      {"multi3/chebyshev/gap/spmd3",
       "it=96 rep=0 rec=0 s=3 gap=0 conv df27ca0f93350697 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv 7e6a80b1ebd22d47 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv b9a166df65b3241d"},
      {"multi3/chebyshev/sdc/spmd3",
       "it=96 rep=0 rec=0 s=3 gap=0 conv df27ca0f93350697 | "
       "it=9 rep=0 rec=0 s=3 gap=0 fail 3da7934180e99722 | "
       "it=96 rep=0 rec=0 s=3 gap=0 conv b9a166df65b3241d"},
  };
  return table;
}

const char* const kMethods[] = {"scg-sspmv",   "pipe-scg", "pipe-pscg",
                                "pipecg-oati", "pipecg3",  "hybrid",
                                kMulti};
const char* const kBases[] = {"monomial", "newton", "chebyshev"};
const char* const kScenarios[] = {"clean", "gap", "sdc"};

void check_engine(const std::string& engine_name) {
  for (const char* method : kMethods) {
    for (const char* basis : kBases) {
      for (const char* scenario : kScenarios) {
        const SolverOptions opts = scenario_options(basis, scenario);
        const std::vector<fault::FaultSpec> faults =
            scenario_faults(scenario);
        Run run;
        if (engine_name == "serial")
          run = run_serial(method, opts, faults);
        else if (engine_name == "spmd2")
          run = run_spmd(method, opts, faults, 2, /*with_pc=*/true);
        else
          run = run_spmd(method, opts, faults, 3, /*with_pc=*/false);
        const std::string key = std::string(method) + "/" + basis + "/" +
                                scenario + "/" + engine_name;
        const std::string actual = record(run);
        const auto it = golden().find(key);
        EXPECT_TRUE(it != golden().end() && it->second == actual)
            << "row: {\"" << key << "\", \"" << actual << "\"},";
      }
    }
  }
}

TEST(SstepGoldenTest, SerialEngine) { check_engine("serial"); }
TEST(SstepGoldenTest, TwoRanksJacobiMatrixPowers) { check_engine("spmd2"); }
TEST(SstepGoldenTest, ThreeRanksMatrixPowers) { check_engine("spmd3"); }

}  // namespace
}  // namespace pipescg
