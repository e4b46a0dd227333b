// mpx_perfbench: the repository's end-to-end benchmark.
//
//   mpx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out PATH]
//
// Runs the named seeded workload through the real Fig. 4 pipeline for S
// seconds (after one warm-up iteration) and prints, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced iterations, runs the staged replay, and reports the per-layer
// metrics, including the tracing overhead, writing the spans to PATH as
// Chrome trace-event JSON.  README.md defines every metric.
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// A wave still waiting at this point of the run counts as stalled.
constexpr std::int64_t kRunDeadlineNs = 150'000'000'000;
/// Past this point the watchdog reports the run as failed and exits, so a
/// stuck call never keeps a run past its 180 s limit.
constexpr std::int64_t kWatchdogNs = 165'000'000'000;
/// Spans written to the Chrome trace (all of them are aggregated).
constexpr std::size_t kMaxWrittenSpans = 100'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string traceOut;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mpx_perfbench: %s\nusage: mpx_perfbench --workload "
               "long_trace|wide_lattice|many_sessions --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else if (flag == "--trace-out") {
      a.traceOut = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds < 1 || (a.trace != 0 && a.trace != 1)) {
    usage("bad arguments");
  }
  return a;
}

/// Operation accounting: one operation is one session (traced stream).
struct Ops {
  std::mutex mu;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void add(const IterationResult& it) {
    std::lock_guard<std::mutex> lk(mu);
    for (const auto* list : {&it.sessions, &it.probes}) {
      attempted += list->size();
      for (const SessionResult& s : *list) {
        if (!s.failed) continue;
        ++failed;
        if (failures.size() < 8) failures.push_back(s.failure);
      }
    }
  }
};

class JsonMetrics {
 public:
  void add(const char* name, double value, const char* unit) {
    char num[64];
    const auto res = std::to_chars(num, num + sizeof num, value);
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + std::string(name) + "\": {\"value\": " +
             std::string(num, res.ptr) + ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] std::string line(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
           body_ + "}}";
  }

 private:
  std::string body_;
};

double ns2s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
double ns2ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The end-to-end metrics of a run.  Every figure is first summarized per
/// iteration (a median or percentile over that iteration's sessions,
/// lag samples, timed batches or set-up probes); the run reports the
/// median over its iterations, so one slow iteration cannot move it.
struct EndToEnd {
  std::vector<double> setupS, eventsPerS, ttvMs, ttvP90Ms, lagMs, lagP99Ms;
  std::vector<double> programNs, programP90Ns, rssMb;
  std::vector<double> daemonNsPerMsg, handshakeMs, pendingPeak;
  std::uint64_t messages = 0, eventFrames = 0;

  void add(const IterationResult& it) {
    for (const SessionResult& s : it.sessions) {
      if (s.failed) return;  // counted as failed; it has no timings
    }
    std::vector<double> ttv, handshake, lag;
    double pending = 0, busyNs = 0, msgs = 0;
    for (const SessionResult& s : it.sessions) {
      ttv.push_back(ns2ms(s.finishedNs - s.closeCallNs));
      handshake.push_back(ns2ms(s.seenNs - s.createNs));
      lag.insert(lag.end(), s.lagMs.begin(), s.lagMs.end());
      pending = std::max(pending, static_cast<double>(s.pendingPeak));
      busyNs += static_cast<double>(s.finishedNs - s.firstIngestNs);
      msgs += static_cast<double>(s.messages);
      messages += s.messages;
      // framesSent counts the handshake and end-of-trace frames too.
      eventFrames += s.framesSent >= 2 ? s.framesSent - 2 : 0;
    }
    setupS.push_back(median(it.setupS));
    eventsPerS.push_back(static_cast<double>(it.messages) /
                         ns2s(it.lastVerdictNs - it.firstHandoffNs));
    ttvMs.push_back(median(ttv));
    ttvP90Ms.push_back(quantile(ttv, 0.9));
    lagMs.push_back(median(lag));
    lagP99Ms.push_back(quantile(lag, 0.99));
    // The mean, not the median: a batch costs either about 100 ns or
    // 500-1500 ns per event, depending on whether the emitter's sender
    // thread is busy or asleep (then each message must wake it), and the
    // share of the two swings around one half between iterations.
    programNs.push_back(mean(it.batchNsPerEvent));
    programP90Ns.push_back(quantile(it.batchNsPerEvent, 0.9));
    rssMb.push_back(it.peakRssMb);
    handshakeMs.push_back(median(handshake));
    pendingPeak.push_back(pending);
    daemonNsPerMsg.push_back(busyNs / std::max(msgs, 1.0));
  }

  void report(JsonMetrics& j) const {
    j.add("setup_s", median(setupS), "s");
    j.add("events_per_s", median(eventsPerS), "1/s");
    j.add("time_to_verdict_ms", median(ttvMs), "ms");
    j.add("time_to_verdict_ms_p90", median(ttvP90Ms), "ms");
    j.add("analyze_lag_ms", median(lagMs), "ms");
    j.add("analyze_lag_ms_p99", median(lagP99Ms), "ms");
    j.add("program_ns_per_event", median(programNs), "ns");
    j.add("program_ns_per_event_p90", median(programP90Ns), "ns");
    j.add("observer_peak_rss_mb", median(rssMb), "MiB");
  }
};

/// Counters of the traced iterations' program side.
struct ProgramCounters {
  std::uint64_t events = 0, messages = 0;
  mpx::core::Instrumentor::ClockStats clock;
  void add(const IterationResult& it) {
    events += it.events;
    messages += it.messages;
    clock.joins += it.clock.joins;
    clock.joinEntriesTouched += it.clock.joinEntriesTouched;
    clock.staleJoins += it.clock.staleJoins;
  }
};

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// The reference counts of a workload, summed over its sessions (peak
/// width and accounted bytes are maxima).  Every iteration's reports were
/// checked against them, so they repeat exactly in every run of a seed.
struct ReferenceTotals {
  std::size_t messages = 0, levels = 0, nodes = 0, width = 0, violations = 0;
  std::uint64_t internHits = 0, internLookups = 0, accountedPeak = 0;

  explicit ReferenceTotals(const std::vector<Reference>& refs) {
    for (const Reference& r : refs) {
      messages += r.messages.size();
      levels += r.stats.levels;
      nodes += r.stats.totalNodes;
      width = std::max(width, r.stats.peakLevelWidth);
      violations += r.violations;
      internHits += r.stats.internHits;
      internLookups += r.stats.internHits + r.stats.internMisses;
      accountedPeak = std::max(accountedPeak, r.stats.peakAccountedBytes);
    }
  }
};

void reportPerLayer(JsonMetrics& j, const std::vector<Reference>& refs,
                    const SpanLog& spans, const ProgramCounters& traced,
                    const EndToEnd& untracedE2e,
                    const EndToEnd& tracedE2e, const StagedResult& st) {
  const auto events = static_cast<double>(traced.events);
  const SpanLog::Totals onEvent = spans.totals("core.Instrumentor::onEvent");
  const SpanLog::Totals onMessage =
      spans.totals("net.SocketEmitter::onMessage");
  j.add("core.instrument_ns_per_event",
        ratio(onEvent.selfNs, static_cast<double>(onEvent.count)), "ns");
  j.add("core.messages_per_event",
        ratio(static_cast<double>(traced.messages), events), "ratio");
  j.add("vc.join_entries_per_event",
        ratio(static_cast<double>(traced.clock.joinEntriesTouched), events),
        "count");
  j.add("vc.stale_join_ratio",
        ratio(static_cast<double>(traced.clock.staleJoins),
              static_cast<double>(traced.clock.joins)),
        "ratio");
  j.add("trace.encode_ns_per_msg", st.encodeNsPerMsg, "ns");
  j.add("trace.decode_ns_per_msg", st.decodeNsPerMsg, "ns");
  j.add("trace.wire_bytes_per_msg", st.wireBytesPerMsg, "B");
  j.add("net.emitter.enqueue_ns_per_msg",
        ratio(onMessage.totalNs, static_cast<double>(onMessage.count)), "ns");
  j.add("net.emitter.msgs_per_frame",
        ratio(static_cast<double>(untracedE2e.messages),
              static_cast<double>(untracedE2e.eventFrames)),
        "count");
  std::vector<double> closeMs = spans.durations("net.SocketEmitter::close");
  for (double& d : closeMs) d /= 1e6;
  j.add("net.emitter.close_ms", median(closeMs), "ms");
  j.add("net.emitter.close_ms_max", quantile(closeMs, 1.0), "ms");
  j.add("net.wire.read_ns_per_frame", st.readNsPerFrame, "ns");
  j.add("net.socket.ns_per_kib", st.socketNsPerKiB, "ns");
  j.add("net.daemon.handshake_ms", median(untracedE2e.handshakeMs), "ms");
  j.add("net.daemon.residual_ns_per_msg",
        median(untracedE2e.daemonNsPerMsg) - st.stagedDaemonNsPerMsg, "ns");
  j.add("analysis.session_new_ms", st.sessionNewMs, "ms");
  j.add("analysis.ingest_ns_per_msg", st.ingestNsPerMsg, "ns");
  j.add("analysis.ingest_growth", st.ingestGrowth, "ratio");
  j.add("analysis.finish_ms", st.finishMs, "ms");
  j.add("analysis.report_ms", st.reportMs, "ms");
  j.add("observer.structure_ns_per_msg", st.structureNsPerMsg, "ns");
  j.add("observer.ns_per_node", st.nsPerNode, "ns");
  const ReferenceTotals ref(refs);
  j.add("observer.levels", static_cast<double>(ref.levels), "count");
  j.add("observer.nodes", static_cast<double>(ref.nodes), "count");
  j.add("observer.peak_level_width", static_cast<double>(ref.width), "count");
  j.add("observer.intern_hit_rate",
        ratio(static_cast<double>(ref.internHits),
              static_cast<double>(ref.internLookups)),
        "ratio");
  j.add("observer.pending_peak", median(untracedE2e.pendingPeak), "count");
  j.add("observer.accounted_bytes_peak",
        static_cast<double>(ref.accountedPeak), "B");
  j.add("logic.monitor_ns_per_node", st.monitorNsPerNode, "ns");
  j.add("tracing.program_overhead_pct",
        (ratio(median(tracedE2e.programNs), median(untracedE2e.programNs)) -
         1) *
            100,
        "%");
  j.add("tracing.events_per_s_overhead_pct",
        (ratio(median(untracedE2e.eventsPerS), median(tracedE2e.eventsPerS)) -
         1) * 100,
        "%");
}

/// Turns a stuck call (a hung pool, a close() that never returns) into
/// failed operations with the stage they stalled in: past kWatchdogNs it
/// prints a failed result and ends the process.
class Watchdog {
 public:
  explicit Watchdog(Ops& ops) : ops_(ops), thread_([this] { watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void watch() {
    std::unique_lock<std::mutex> lk(mu_);
    if (cv_.wait_for(lk, std::chrono::nanoseconds(kWatchdogNs),
                     [this] { return done_; })) {
      return;
    }
    std::lock_guard<std::mutex> olk(ops_.mu);
    std::fprintf(stderr, "mpx_perfbench: stalled in stage '%s'\n",
                 gStage.load());
    std::printf("%s\n", JsonMetrics()
                            .line(false, ops_.attempted + 1, ops_.failed + 1)
                            .c_str());
    std::fflush(stdout);
    std::_Exit(0);
  }

  Ops& ops_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses exist
};

int run(const Args& args) {
  const std::int64_t start = nowNs();
  Ops ops;
  const Watchdog watchdog(ops);

  gStage = "generate";
  const Workload w = makeWorkload(args.workload, args.seed);
  // Seeded inputs: a second generation from the same seed must agree.
  bool deterministic = true;
  {
    const Workload again = makeWorkload(args.workload, args.seed);
    for (std::size_t i = 0; i < w.programs.size(); ++i) {
      deterministic = deterministic &&
                      w.programs[i].events == again.programs[i].events;
    }
  }
  gStage = "reference";
  std::vector<Reference> refs;
  for (const Program& p : w.programs) refs.push_back(computeReference(p));
  const Reference probeRef = computeReference(w.probe);

  const std::int64_t deadline = start + kRunDeadlineNs;
  bool stalled = false;
  const auto iterate = [&](SpanLog* spans) {
    IterationResult it = runIteration(w, refs, probeRef, spans, deadline);
    ops.add(it);
    stalled = stalled || it.stalled;
    return it;
  };

  (void)iterate(nullptr);  // warm-up: caches, lazy set-up, first connects
  EndToEnd untraced, traced;
  ProgramCounters tracedCounters;
  SpanLog spans;
  const std::int64_t measureEnd =
      nowNs() + static_cast<std::int64_t>(args.seconds) * 1'000'000'000;
  std::size_t iterations = 0;
  while (!stalled && (iterations < 2 || nowNs() < measureEnd)) {
    // The traced run alternates untraced and traced iterations, so its
    // overhead figure compares neighbours.
    const bool tracedIter = args.trace == 1 && iterations % 2 == 1;
    const IterationResult it = iterate(tracedIter ? &spans : nullptr);
    if (tracedIter) {
      traced.add(it);
      tracedCounters.add(it);
    } else {
      untraced.add(it);
    }
    ++iterations;
  }

  JsonMetrics j;
  bool correct = deterministic && !stalled;
  if (args.trace == 0) {
    untraced.report(j);
  } else {
    const StagedResult st = runStaged(
        w, refs,
        ratio(static_cast<double>(untraced.messages),
              static_cast<double>(untraced.eventFrames)),
        spans);
    correct = correct && st.reportsMatch;
    reportPerLayer(j, refs, spans, tracedCounters, untraced, traced, st);
    if (!args.traceOut.empty() &&
        !spans.writeChromeJson(args.traceOut, kMaxWrittenSpans)) {
      std::fprintf(stderr, "mpx_perfbench: cannot write %s\n",
                   args.traceOut.c_str());
    }
  }
  gStage = "output";
  std::lock_guard<std::mutex> lk(ops.mu);
  correct = correct && ops.failed == 0;
  for (const std::string& f : ops.failures) {
    std::fprintf(stderr, "mpx_perfbench: failed session: %s\n", f.c_str());
  }
  const ReferenceTotals ref(refs);
  std::fprintf(stderr,
               "mpx_perfbench: %s seed=%llu iterations=%zu deterministic=%d "
               "messages=%zu levels=%zu nodes=%zu peak_width=%zu "
               "violations=%zu\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               iterations, deterministic ? 1 : 0, ref.messages, ref.levels,
               ref.nodes, ref.width, ref.violations);
  std::printf("%s\n", j.line(correct, ops.attempted, ops.failed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpx_perfbench: %s\n", e.what());
    return 1;
  }
}
