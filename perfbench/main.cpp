// End-to-end benchmark of pipescg served through service::Session.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//             [--requests N] [--trace-out spans.csv]
//
// --trace 0 measures the end-to-end metrics with no tracing anywhere: the
// Session is built several times (setup_s is the median), warmed with one
// request per client, then serves closed-loop clients for --seconds; the
// Session is built several times again after that.
//
// --trace 1 gives the per-layer split instead.  It serves the same closed
// loop for half of --seconds (timing the Session and AdmissionQueue calls
// from here), then replays those batches, in order and with the same
// compositions, on a bench-owned replica of the Session's per-rank state
// whose engine times every layer call (layer_trace.hpp).  Iteration counts
// of the replica must equal the Session's request by request, and each
// rank's child spans must nest inside its solve span without overlapping.
//
// Every served request is checked from outside: ||b - A x|| / ||b|| on the
// gathered iterate must be within kResidualSlack * rtol, and the job must
// be kDone and converged.  The last line of stdout is one JSON object with
// keys correct / attempted / failed / metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipescg/base/cli.hpp"
#include "pipescg/base/error.hpp"
#include "pipescg/service/queue.hpp"
#include "pipescg/service/session.hpp"

#include "layer_trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using pipescg::service::AdmissionQueue;
using pipescg::service::JobState;
using pipescg::service::Session;
using pipescg::service::SolveContext;
using pipescg::sparse::CsrMatrix;

// A round of set-ups repeats the build until it has taken this long (at
// least kMinSetupReps, at most kMaxSetupReps times), so a set-up of a few
// hundred microseconds is as steady as one of a third of a second.  The
// end-to-end run makes one round before and one after the timed phase and
// reports the median of both, so setup_s samples the host at two times
// half a minute apart instead of one.
constexpr double kSetupBudgetSeconds = 2.0;
constexpr int kMinSetupReps = 8;
constexpr int kMaxSetupReps = 4000;
// Replay stops once a rank has logged this many spans (32 B each).
constexpr std::size_t kMaxSpansPerRank = 200000;
// The timed phase is cut into kWindows equal windows by completion time.
// solves_per_s is the median of the windows' rates, and latency_tail_s the
// median of their tails when every window holds at least kMinWindowSamples
// requests (so each window's tail is at or above p90).  A stall of the host
// then spoils the windows it falls in instead of the run, and the median
// moves only once stalls reach five of the nine windows; on the batched
// stream, one window in three or four holds a stall.  With fewer samples
// the tail is taken over the whole run, where one stalled request cannot
// reach it.
constexpr std::size_t kWindows = 9;
constexpr std::size_t kMinWindowSamples = 100;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest nearest-rank percentile with at least ten samples beyond it:
// the (n-10)th smallest of n samples, i.e. percentile 100 (n-10)/n.  With
// fewer than eleven samples there is no such percentile; the maximum is
// reported with the samples beyond it counted as zero.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.beyond = 10;
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

// One served request.
struct Served {
  std::uint64_t id = 0;
  double end = 0.0;         // end of the Session call, since the epoch
  double latency = 0.0;     // submit -> end of the Session call
  double queue_wait = 0.0;  // submit -> start of the Session call
  std::size_t iterations = 0;
  bool ok = false;
};

// One Session::solve_batch call and the requests it served, head first.
struct BatchRecord {
  std::vector<std::uint64_t> ids;
  double start = 0.0;  // seconds since the run epoch
  double end = 0.0;
  double busy = 0.0;  // next_batch + solve_batch
};

struct Phase {
  double begin = 0.0;  // seconds since the run epoch
  std::vector<Served> served;
  std::vector<BatchRecord> batches;
  std::size_t team_runs = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
};

// Closed loop: `workload.clients` clients each keep one request in flight
// through an AdmissionQueue; the service pops the longest batchable prefix
// and runs it with Session::solve_batch.  A client
// resubmits as soon as its answer is checked, until `seconds` have passed or
// `max_requests` were issued; the queue is then drained.  Request
// generation and checking are the clients' work and are not busy time.
Phase serve(Session& session, const Workload& workload,
            const RequestStream& stream, const CsrMatrix& a,
            std::uint64_t first_id, double seconds, std::size_t max_requests,
            Clock::time_point epoch) {
  struct Client {
    Request request;
    std::unique_ptr<SolveContext> ctx;
    double submit = 0.0;
  };
  Phase phase;
  AdmissionQueue queue;
  std::vector<Client> clients(workload.clients);
  std::size_t issued = 0;
  const Clock::time_point begin = Clock::now();
  const std::size_t team_runs_before = session.team_runs();
  phase.begin = seconds_between(epoch, begin);

  auto issue = [&](Client& c) {
    c.ctx.reset();
    if (issued >= max_requests ||
        seconds_between(begin, Clock::now()) >= seconds)
      return;
    c.request = stream.make(first_id + issued++);
    phase.digest = digest_request(phase.digest, c.request);
    c.ctx = std::make_unique<SolveContext>(c.request.method, c.request.b,
                                           request_options());
    c.submit = seconds_between(epoch, Clock::now());
    queue.submit(c.ctx.get());
  };

  for (Client& c : clients) issue(c);
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<SolveContext*> batch =
        queue.next_batch(workload.clients);
    if (batch.empty()) break;
    const Clock::time_point t1 = Clock::now();
    session.solve_batch(batch);
    const Clock::time_point t2 = Clock::now();

    BatchRecord record;
    record.start = seconds_between(epoch, t1);
    record.end = seconds_between(epoch, t2);
    record.busy = seconds_between(t0, t2);
    std::vector<Client*> done;
    for (const SolveContext* ctx : batch)
      done.push_back(&*std::find_if(
          clients.begin(), clients.end(),
          [ctx](const Client& c) { return c.ctx.get() == ctx; }));
    for (Client* c : done) {
      const SolveContext& ctx = *c->ctx;
      Served s;
      s.id = c->request.id;
      s.end = record.end;
      s.latency = record.end - c->submit;
      s.queue_wait = record.start - c->submit;
      s.iterations = ctx.stats().iterations;
      const double residual = relative_residual(a, c->request.b, ctx.x());
      s.ok = ctx.state() == JobState::kDone && ctx.converged() &&
             residual <= kResidualSlack * kRtol;
      if (!s.ok) {
        std::printf("request %" PRIu64 " FAILED: state=%s converged=%d "
                    "residual=%.3e %s\n",
                    s.id, pipescg::service::to_string(ctx.state()),
                    ctx.converged() ? 1 : 0, residual, ctx.error().c_str());
        // A failed request misses every latency limit.
        s.latency = std::numeric_limits<double>::infinity();
      }
      record.ids.push_back(s.id);
      phase.served.push_back(s);
    }
    for (Client* c : done) issue(*c);
    phase.batches.push_back(std::move(record));
  }
  phase.team_runs = session.team_runs() - team_runs_before;
  return phase;
}

// Repeats `build` until kSetupBudgetSeconds have passed (within the rep
// limits); returns each build's seconds.  `build` returns its own time.
template <typename Build>
std::vector<double> repeat_setup(Build&& build) {
  std::vector<double> times;
  double total = 0.0;
  while (static_cast<int>(times.size()) < kMinSetupReps ||
         (total < kSetupBudgetSeconds &&
          static_cast<int>(times.size()) < kMaxSetupReps)) {
    times.push_back(build());
    total += times.back();
  }
  return times;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

void count_requests(const Phase& phase, Outcome& out) {
  for (const Served& s : phase.served) {
    ++out.attempted;
    if (!s.ok) ++out.failed;
  }
  if (out.failed > 0) out.correct = false;
}

void print_json(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    // JSON has no infinity; a failed request's latency prints as the
    // largest double (the run is marked incorrect anyway).
    const double v = std::isfinite(m.value)
                         ? m.value
                         : std::numeric_limits<double>::max();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_cache_regime(const Workload& workload, const CsrMatrix& a) {
  const Footprint f = footprint(workload, a);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const double mib = 1024.0 * 1024.0;
  std::printf("workload %s: %zu unknowns, %zu nonzeros\n", workload.name,
              a.rows(), a.nnz());
  std::printf("footprint (computed): matrix %.1f MiB + vectors %.1f MiB = "
              "%.1f MiB; L2 %.1f MiB, L3 %.1f MiB\n",
              f.matrix_bytes / mib, f.vector_bytes / mib,
              (f.matrix_bytes + f.vector_bytes) / mib, l2 / mib, l3 / mib);
}

// --- end-to-end run (--trace 0) ---------------------------------------------

void end_to_end(const Workload& workload, const CsrMatrix& a,
                const RequestStream& stream, double seconds,
                std::size_t max_requests, Outcome& out) {
  std::unique_ptr<Session> session;
  auto build_session = [&] {
    session.reset();
    CsrMatrix copy = a;
    const Clock::time_point t = Clock::now();
    session = std::make_unique<Session>(std::move(copy),
                                        session_config(workload));
    return seconds_between(t, Clock::now());
  };
  std::vector<double> setups = repeat_setup(build_session);
  const std::size_t setups_before = setups.size();

  const Clock::time_point epoch = Clock::now();
  const std::size_t warm = workload.clients;
  const Phase warmup =
      serve(*session, workload, stream, a, 0,
            std::numeric_limits<double>::infinity(), warm, epoch);
  const Phase timed = serve(*session, workload, stream, a, warm, seconds,
                            max_requests, epoch);
  count_requests(warmup, out);
  count_requests(timed, out);
  for (double t : repeat_setup(build_session)) setups.push_back(t);

  std::vector<double> latencies;
  for (const Served& s : timed.served) latencies.push_back(s.latency);
  std::size_t ok = 0;
  for (const Served& s : timed.served) ok += s.ok ? 1 : 0;

  auto window_of = [&](double end) {
    const double w = (end - timed.begin) / (seconds / kWindows);
    return static_cast<std::size_t>(
        std::clamp(w, 0.0, static_cast<double>(kWindows - 1)));
  };
  std::vector<std::vector<double>> window_latency(kWindows);
  std::vector<double> window_ok(kWindows, 0.0);
  std::vector<double> window_busy(kWindows, 0.0);
  for (const Served& s : timed.served) {
    window_latency[window_of(s.end)].push_back(s.latency);
    window_ok[window_of(s.end)] += s.ok ? 1.0 : 0.0;
  }
  for (const BatchRecord& b : timed.batches)
    window_busy[window_of(b.end)] += b.busy;
  std::vector<double> rates;
  std::vector<double> window_tails;
  bool windowed = true;
  for (std::size_t w = 0; w < kWindows; ++w) {
    if (window_busy[w] > 0.0) rates.push_back(window_ok[w] / window_busy[w]);
    windowed = windowed && window_latency[w].size() >= kMinWindowSamples;
    window_tails.push_back(tail(window_latency[w]).value);
  }
  const Tail whole = tail(latencies);
  const Tail first = tail(window_latency[0]);

  std::printf("setup: %zu Session constructions (%zu before, %zu after the "
              "timed phase), median %.6f s (min %.6f, max %.6f)\n",
              setups.size(), setups_before, setups.size() - setups_before,
              median(setups),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  std::printf("served %zu requests in %zu Session calls\n",
              timed.served.size(), timed.batches.size());
  if (windowed)
    std::printf("latency tail: median over %zu windows of p%.2f over about "
                "%zu samples each (%zu beyond)\n",
                kWindows, first.percentile, first.samples, first.beyond);
  else
    std::printf("latency tail: p%.2f over %zu samples (%zu beyond)\n",
                whole.percentile, whole.samples, whole.beyond);
  std::printf("stream_digest %016" PRIx64 "\niterations", timed.digest);
  for (const Served& s : timed.served) std::printf(" %zu", s.iterations);
  std::printf("\n");

  out.metrics = {
      {"latency_p50_s", median(latencies), "s"},
      {"latency_tail_s", windowed ? median(window_tails) : whole.value, "s"},
      {"solves_per_s", median(rates), "1/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"success_fraction",
       static_cast<double>(ok) /
           static_cast<double>(std::max<std::size_t>(timed.served.size(), 1)),
       "fraction"},
  };
}

// --- traced run (--trace 1) -------------------------------------------------

struct LayerTotals {
  double seconds = 0.0;
  std::size_t calls = 0;
  std::size_t count = 0;  // sum of Span::count
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kTeamSpawn) + 1;

void write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, const SpanLog*>>&
                     tracks) {
  std::ofstream os(path);
  PIPESCG_CHECK(os.good(), "cannot open span file " + path);
  os << "track,index,request,parent,layer,start_s,end_s,count\n";
  char buf[160];
  for (const auto& [track, log] : tracks) {
    const std::vector<Span>& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(buf, sizeof(buf), ",%zu,%" PRIu64 ",%lld,%s,%.9f,%.9f,%u\n",
                    i, s.request,
                    s.parent == kNoParent ? -1LL
                                          : static_cast<long long>(s.parent),
                    layer_name(s.layer), s.start, s.end, s.count);
      os << track << buf;
    }
  }
  PIPESCG_CHECK(os.good(), "failed writing span file " + path);
}

void traced(const Workload& workload, const CsrMatrix& a,
            const RequestStream& stream, double seconds,
            std::size_t max_requests, const std::string& trace_out,
            Outcome& out) {
  const Clock::time_point epoch = Clock::now();
  Session session(a, session_config(workload));
  const std::size_t warm = workload.clients;
  const Phase warmup =
      serve(session, workload, stream, a, 0,
            std::numeric_limits<double>::infinity(), warm, epoch);
  const Phase timed = serve(session, workload, stream, a, warm, 0.5 * seconds,
                            max_requests, epoch);
  count_requests(warmup, out);
  count_requests(timed, out);

  SpanLog setup_log(epoch);
  std::unique_ptr<Replica> replica;
  repeat_setup([&] {
    replica.reset();
    const Clock::time_point t = Clock::now();
    replica = std::make_unique<Replica>(a, workload.mpk, setup_log, epoch);
    return seconds_between(t, Clock::now());
  });

  // Replays one recorded Session call on the replica; its answers must pass
  // the same residual check as the Session's.
  std::size_t replica_failures = 0;
  auto replay = [&](const BatchRecord& batch) {
    std::vector<Request> requests;
    for (std::uint64_t id : batch.ids) requests.push_back(stream.make(id));
    std::vector<const Request*> ptrs;
    for (const Request& r : requests) ptrs.push_back(&r);
    Replica::Run run = replica->run(ptrs);
    for (std::size_t c = 0; c < requests.size(); ++c) {
      const double res = relative_residual(a, requests[c].b, run.x[c]);
      if (!run.stats[c].converged || !(res <= kResidualSlack * kRtol)) {
        ++replica_failures;
        std::printf("replica request %" PRIu64 " FAILED: residual %.3e\n",
                    requests[c].id, res);
      }
    }
    return run;
  };
  for (const BatchRecord& batch : warmup.batches) replay(batch);
  replica->clear();

  std::unordered_map<std::uint64_t, const Served*> by_id;
  for (const Served& s : timed.served) by_id[s.id] = &s;
  std::size_t replayed_batches = 0;
  std::size_t replayed_solves = 0;
  std::size_t mismatches = 0;
  std::size_t run_iterations = 0;  // per team run: its widest column
  double iterations = 0.0;
  double replacements = 0.0;
  double replica_wall = 0.0;
  double session_wall = 0.0;
  double service_self = 0.0;
  const Clock::time_point replay_begin = Clock::now();
  for (const BatchRecord& batch : timed.batches) {
    if (replayed_batches > 0 &&
        (seconds_between(replay_begin, Clock::now()) >= 0.5 * seconds ||
         replica->rank_log(0).spans().size() >= kMaxSpansPerRank))
      break;
    const Replica::Run run = replay(batch);
    std::size_t widest = 0;
    for (std::size_t c = 0; c < batch.ids.size(); ++c) {
      const Served& s = *by_id.at(batch.ids[c]);
      const std::size_t its = run.stats[c].iterations;
      if (its != s.iterations) {
        ++mismatches;
        std::printf("replica parity FAILED: request %" PRIu64
                    " took %zu iterations in the Session, %zu in the "
                    "replica\n",
                    s.id, s.iterations, its);
      }
      widest = std::max(widest, its);
      iterations += static_cast<double>(s.iterations);
      replacements += static_cast<double>(run.stats[c].replacements);
    }
    run_iterations += widest;
    replica_wall += run.wall_seconds;
    session_wall += batch.end - batch.start;
    service_self += run.wall_seconds - run.max_solve_seconds;
    ++replayed_batches;
    replayed_solves += batch.ids.size();
  }

  // Layer totals over every rank's spans, checking that each solve span's
  // children nest inside it without overlapping, so layer time plus krylov
  // self time is exactly the solve span.
  std::array<LayerTotals, kLayers> totals{};
  double self_seconds = 0.0;
  bool nested = true;
  std::vector<double> busy;
  double spmv_bytes = 0.0;
  for (int r = 0; r < kRanks; ++r) {
    const std::vector<Span>& spans = replica->rank_log(r).spans();
    double solve = 0.0;
    double wait = 0.0;
    double children = 0.0;
    std::size_t spmv_calls = 0;
    std::uint32_t root = kNoParent;
    double prev_end = 0.0;
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      LayerTotals& t = totals[static_cast<std::size_t>(s.layer)];
      t.seconds += s.seconds();
      ++t.calls;
      t.count += s.count;
      if (s.layer == Layer::kSolve) {
        root = i;
        prev_end = s.start;
        solve += s.seconds();
        continue;
      }
      nested = nested && root != kNoParent && s.parent == root &&
               s.start >= prev_end && s.end <= spans[root].end;
      prev_end = s.end;
      children += s.seconds();
      if (s.layer == Layer::kDotWait) wait += s.seconds();
      if (s.layer == Layer::kSpmv) ++spmv_calls;
    }
    self_seconds += solve - children;
    busy.push_back(solve - wait);
    spmv_bytes += static_cast<double>(replica->dist(r).bytes_per_apply()) *
                  static_cast<double>(spmv_calls);
    std::printf("rank %d: layer spans %.6f s + krylov self %.6f s = solve "
                "span %.6f s\n",
                r, children, solve - children, solve);
  }
  if (!nested) std::printf("span nesting FAILED: a layer span escapes or "
                           "overlaps within its solve span\n");
  out.correct =
      out.correct && mismatches == 0 && replica_failures == 0 && nested;

  auto total = [&](Layer l) -> const LayerTotals& {
    return totals[static_cast<std::size_t>(l)];
  };
  const double solve_seconds = total(Layer::kSolve).seconds;
  const double rank_iterations =
      static_cast<double>(kRanks) * static_cast<double>(run_iterations);
  auto per_iter = [&](double x) {
    return rank_iterations > 0.0 ? x / rank_iterations : 0.0;
  };
  auto us_per_call = [&](Layer l) {
    const LayerTotals& t = total(l);
    return t.calls > 0 ? 1e6 * t.seconds / static_cast<double>(t.calls) : 0.0;
  };
  auto setup_median = [&](Layer l) {
    std::vector<double> v;
    for (const Span& s : setup_log.spans())
      if (s.layer == l) v.push_back(s.seconds());
    return median(v);
  };
  auto per_solve = [&](double x) {
    return replayed_solves > 0 ? x / static_cast<double>(replayed_solves)
                               : 0.0;
  };
  double halo = 0.0;
  double vector_bytes = 0.0;
  for (int r = 0; r < kRanks; ++r) {
    halo += static_cast<double>(replica->dist(r).halo_volume()) / kRanks;
    vector_bytes += replica->vector_bytes(r) / kRanks;
  }
  std::vector<double> waits;
  for (const Served& s : timed.served) waits.push_back(s.queue_wait);
  const Tail wait_tail = tail(waits);
  const double served = static_cast<double>(timed.served.size());

  std::printf("replayed %zu of %zu Session calls (%zu requests); replica "
              "iteration parity: %s\n",
              replayed_batches, timed.batches.size(), replayed_solves,
              mismatches == 0 ? "ok" : "MISMATCH");
  std::printf("queue wait tail: p%.2f over %zu samples (%zu beyond)\n",
              wait_tail.percentile, wait_tail.samples, wait_tail.beyond);
  std::printf("layer split of %.6f rank-seconds of solve spans:\n",
              solve_seconds);
  std::printf("  %-20s %10.6f s %6.1f%%\n", "krylov.self", self_seconds,
              100.0 * self_seconds / std::max(solve_seconds, 1e-300));
  for (Layer l : {Layer::kSpmv, Layer::kPowers, Layer::kPcApply,
                  Layer::kDotPost, Layer::kDotWait})
    std::printf("  %-20s %10.6f s %6.1f%%\n", layer_name(l),
                total(l).seconds,
                100.0 * total(l).seconds / std::max(solve_seconds, 1e-300));

  const double spmv_outputs = static_cast<double>(total(Layer::kSpmv).calls +
                                                  total(Layer::kPowers).count);
  out.metrics = {
      {"krylov.self_us_per_iter", 1e6 * per_iter(self_seconds), "us"},
      {"krylov.vector_bytes_per_iter",
       vector_bytes / std::max(static_cast<double>(run_iterations), 1.0), "B"},
      {"krylov.iterations_per_solve", per_solve(iterations), "count"},
      {"krylov.spmv_per_iter", per_iter(spmv_outputs), "count"},
      {"krylov.replacements_per_solve", per_solve(replacements), "count"},
      {"sparse.spmv_us_per_call", us_per_call(Layer::kSpmv), "us"},
      {"sparse.spmv_gbs",
       total(Layer::kSpmv).seconds > 0.0
           ? spmv_bytes / total(Layer::kSpmv).seconds / 1e9
           : 0.0,
       "GB/s"},
      {"sparse.spmv_calls_per_iter",
       per_iter(static_cast<double>(total(Layer::kSpmv).calls)), "count"},
      {"sparse.halo_doubles_per_spmv", halo, "count"},
      {"sparse.powers_us_per_call", us_per_call(Layer::kPowers), "us"},
      {"sparse.powers_calls_per_iter",
       per_iter(static_cast<double>(total(Layer::kPowers).calls)), "count"},
      {"sparse.setup_dist_s", setup_median(Layer::kSetupDist), "s"},
      {"sparse.setup_mpk_s", setup_median(Layer::kSetupMpk), "s"},
      {"precond.setup_s", setup_median(Layer::kSetupPc), "s"},
      {"par.team_spawn_s", setup_median(Layer::kTeamSpawn), "s"},
      {"precond.apply_us_per_call", us_per_call(Layer::kPcApply), "us"},
      {"la.dot_post_us_per_call", us_per_call(Layer::kDotPost), "us"},
      {"la.dots_per_post",
       total(Layer::kDotPost).calls > 0
           ? static_cast<double>(total(Layer::kDotPost).count) /
                 static_cast<double>(total(Layer::kDotPost).calls)
           : 0.0,
       "count"},
      {"par.allreduce_wait_us_per_call", us_per_call(Layer::kDotWait), "us"},
      {"par.allreduces_per_iter",
       per_iter(static_cast<double>(total(Layer::kDotPost).calls)), "count"},
      {"par.wait_fraction",
       solve_seconds > 0.0 ? total(Layer::kDotWait).seconds / solve_seconds
                           : 0.0,
       "fraction"},
      {"par.rank_imbalance",
       median(busy) > 0.0
           ? *std::max_element(busy.begin(), busy.end()) / median(busy)
           : 0.0,
       "ratio"},
      {"service.queue_wait_s.p50", median(waits), "s"},
      {"service.queue_wait_s.tail", wait_tail.value, "s"},
      {"service.batch_width_mean",
       served / static_cast<double>(std::max<std::size_t>(
                    timed.batches.size(), 1)),
       "count"},
      {"service.team_runs_per_solve",
       static_cast<double>(timed.team_runs) / std::max(served, 1.0), "count"},
      {"service.self_s_per_solve", per_solve(service_self), "s"},
      {"trace.overhead_ratio",
       session_wall > 0.0 ? replica_wall / session_wall : 0.0, "ratio"},
  };

  if (!trace_out.empty()) {
    SpanLog service_log(epoch);
    for (const BatchRecord& batch : timed.batches) {
      Span call;
      call.layer = Layer::kServiceCall;
      call.request = batch.ids.front();
      call.count = static_cast<std::uint32_t>(batch.ids.size());
      call.start = batch.start;
      call.end = batch.end;
      const std::uint32_t parent = service_log.add(call);
      for (std::uint64_t id : batch.ids) {
        Span wait;
        wait.layer = Layer::kQueueWait;
        wait.request = id;
        wait.parent = parent;
        wait.end = batch.start;
        wait.start = batch.start - by_id.at(id)->queue_wait;
        service_log.add(wait);
      }
    }
    std::vector<std::pair<std::string, const SpanLog*>> tracks = {
        {"setup", &setup_log}, {"service", &service_log}};
    for (int r = 0; r < kRanks; ++r)
      tracks.emplace_back("rank" + std::to_string(r), &replica->rank_log(r));
    write_spans(trace_out, tracks);
    std::printf("spans written to %s\n", trace_out.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    pipescg::CliParser cli("perfbench",
                           "end-to-end solve benchmark through "
                           "service::Session");
    cli.add_option("workload", "", "thermal2-pipe-pscg | poisson125-pcg | "
                                   "thermal2-stream-batched");
    cli.add_option("seed", "1", "request-stream seed (right-hand sides, mix)");
    cli.add_option("seconds", "10", "length of the timed phase");
    cli.add_option("trace", "0", "0 = end-to-end metrics, 1 = per-layer");
    cli.add_option("requests", "0",
                   "stop issuing after this many timed requests (0 = no cap)");
    cli.add_option("trace-out", "", "--trace 1: write all spans as CSV here");
    if (!cli.parse(argc, argv)) return 0;

    const Workload& workload = find_workload(cli.str("workload"));
    const std::int64_t seed = cli.integer("seed");
    const double seconds = cli.real("seconds");
    const std::int64_t trace = cli.integer("trace");
    const std::int64_t requests = cli.integer("requests");
    PIPESCG_CHECK(seed >= 0, "--seed must be >= 0");
    PIPESCG_CHECK(seconds > 0.0, "--seconds must be > 0");
    PIPESCG_CHECK(trace == 0 || trace == 1, "--trace must be 0 or 1");
    PIPESCG_CHECK(requests >= 0, "--requests must be >= 0");
    const std::size_t max_requests =
        requests == 0 ? std::numeric_limits<std::size_t>::max()
                      : static_cast<std::size_t>(requests);

    const CsrMatrix a = workload.make_matrix();
    print_cache_regime(workload, a);
    const RequestStream stream(workload, a, static_cast<std::uint64_t>(seed));
    Outcome out;
    if (trace == 1)
      traced(workload, a, stream, seconds, max_requests, cli.str("trace-out"),
             out);
    else
      end_to_end(workload, a, stream, seconds, max_requests, out);
    print_json(out);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
