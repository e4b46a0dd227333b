// bench_pipeline_lag — the cost and payoff of trace-context propagation.
//
// Two questions, both against a live loopback daemon:
//   1. What does stamping kEventsTs send timestamps cost the emitter?
//      The ISSUE budget is <= 5% over the untimestamped v2 path; the
//      overhead_pct counter in BENCH_pipeline_lag.json is what CI reads.
//   2. What end-to-end emit-to-receive / emit-to-analyze lag does the
//      daemon actually measure?  p50/p99 are read back from the
//      mpx_pipeline_*_lag_ns histograms the daemon populates.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "net/emitter.hpp"
#include "net/observerd.hpp"
#include "net/wire.hpp"
#include "trace/event.hpp"
#include "trace/var_table.hpp"
#include "vc/vector_clock.hpp"

namespace {

using namespace mpx;

/// A single-thread totally-ordered stream: the lattice is a chain, so the
/// daemon's analysis cost stays trivial and the measurement isolates the
/// transport.
std::vector<trace::Message> chainStream(std::uint64_t events) {
  std::vector<trace::Message> out;
  out.reserve(events);
  for (std::uint64_t i = 1; i <= events; ++i) {
    trace::Message m;
    m.event.kind = trace::EventKind::kWrite;
    m.event.thread = 0;
    m.event.var = 0;
    m.event.value = static_cast<Value>(i);
    m.event.localSeq = i;
    m.event.globalSeq = i;
    m.clock = vc::VectorClock(1);
    m.clock.set(0, i);
    out.push_back(std::move(m));
  }
  return out;
}

net::Handshake chainHandshake(std::uint32_t version) {
  trace::VarTable vars;
  vars.intern("x", 0);
  net::Handshake h = net::makeHandshake(1, "", {"x"}, vars);
  h.version = version;
  return h;
}

net::DaemonOptions quietDaemon(std::size_t streams) {
  net::DaemonOptions o;
  o.expectedStreams = streams;
  o.logErrors = false;
  return o;
}

/// Sends the whole stream over one connection and waits for the flush.
void sendStream(std::uint16_t port, const net::Handshake& h,
                const std::vector<trace::Message>& msgs) {
  net::EmitterOptions opts;
  opts.port = port;
  opts.handshake = h;
  net::SocketEmitter emitter(opts);
  for (const auto& m : msgs) emitter.onMessage(m);
  emitter.close();
}

/// Emitter throughput at a fixed protocol version (2 = plain kEvents,
/// 3 = kEventsTs with send timestamps).  Repeat streams are duplicates the
/// daemon dedups, so daemon-side analysis cost is paid once and the loop
/// measures the emitter/transport.
void BM_EmitterSend(benchmark::State& state) {
  const auto version = static_cast<std::uint32_t>(state.range(0));
  const std::uint64_t events = 512;
  const auto msgs = chainStream(events);
  const net::Handshake h = chainHandshake(version);

  net::ObserverDaemon daemon(quietDaemon(/*streams=*/1u << 20));
  if (!daemon.start()) {
    state.SkipWithError("cannot start loopback daemon");
    return;
  }
  for (auto _ : state) {
    sendStream(daemon.port(), h, msgs);
  }
  daemon.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EmitterSend)->Arg(2)->Arg(3)->UseRealTime();

/// Head-to-head v2 vs v3 inside one benchmark run, so the JSON carries a
/// single overhead_pct counter CI can assert on without cross-referencing
/// two benchmark entries.  Each round sends one v2 and one v3 stream back
/// to back; overhead_pct is the median of the per-round v3/v2 ratios, so
/// one round disturbed by the scheduler cannot move it.
void BM_EmitterVersionOverhead(benchmark::State& state) {
  const std::uint64_t events = 512;
  const int rounds = 8;
  const auto msgs = chainStream(events);
  const net::Handshake h2 = chainHandshake(net::kListSpecProtocolVersion);
  const net::Handshake h3 = chainHandshake(net::kProtocolVersion);

  net::ObserverDaemon daemon(quietDaemon(/*streams=*/1u << 20));
  if (!daemon.start()) {
    state.SkipWithError("cannot start loopback daemon");
    return;
  }
  double v2Ns = 0;
  double v3Ns = 0;
  std::vector<double> ratios;
  using clock = std::chrono::steady_clock;
  for (auto _ : state) {
    // Interleave the two versions so drift (page cache, turbo) hits both.
    for (int r = 0; r < rounds; ++r) {
      const auto t0 = clock::now();
      sendStream(daemon.port(), h2, msgs);
      const auto t1 = clock::now();
      sendStream(daemon.port(), h3, msgs);
      const auto t2 = clock::now();
      using ns = std::chrono::duration<double, std::nano>;
      const double v2 = ns(t1 - t0).count();
      const double v3 = ns(t2 - t1).count();
      v2Ns += v2;
      v3Ns += v3;
      if (v2 > 0) ratios.push_back(v3 / v2);
    }
  }
  daemon.stop();

  const double denom = static_cast<double>(state.iterations()) *
                       static_cast<double>(rounds) *
                       static_cast<double>(events);
  state.counters["v2_ns_per_msg"] = v2Ns / denom;
  state.counters["v3_ns_per_msg"] = v3Ns / denom;
  double medianRatio = 1.0;
  if (!ratios.empty()) {
    const auto mid =
        ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
    std::nth_element(ratios.begin(), mid, ratios.end());
    medianRatio = *mid;
  }
  state.counters["overhead_pct"] = (medianRatio - 1.0) * 100.0;
  state.counters["rounds"] = static_cast<double>(ratios.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rounds) * 2 *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EmitterVersionOverhead)->Iterations(5)->UseRealTime();

/// Percentile from a snapshot histogram: smallest bucket bound whose
/// cumulative count covers the quantile (+Inf reported as the last bound).
std::uint64_t histogramPercentile(const telemetry::HistogramSample& h,
                                  double q) {
  if (h.count == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(h.count) + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    cumulative += h.counts[i];
    if (cumulative >= target) return h.bounds[i];
  }
  return h.bounds.empty() ? 0 : h.bounds.back();
}

/// Full pipeline: one v3 stream through a fresh daemon per iteration, then
/// p50/p99 emit-to-receive and emit-to-analyze lag read back from the
/// daemon's own mpx_pipeline_* histograms (zeros in telemetry-OFF builds).
void BM_PipelineLagE2E(benchmark::State& state) {
  const std::uint64_t events = 512;
  const auto msgs = chainStream(events);
  const net::Handshake h = chainHandshake(net::kProtocolVersion);

  telemetry::registry().reset();
  for (auto _ : state) {
    net::ObserverDaemon daemon(quietDaemon(/*streams=*/1));
    if (!daemon.start()) {
      state.SkipWithError("cannot start loopback daemon");
      return;
    }
    sendStream(daemon.port(), h, msgs);
    if (!daemon.waitFinished(std::chrono::milliseconds(10000))) {
      state.SkipWithError("daemon did not finish");
      return;
    }
    daemon.stop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));

  const telemetry::MetricsSnapshot snap = telemetry::registry().snapshot();
  for (const auto& hist : snap.histograms) {
    const char* prefix = nullptr;
    if (hist.name == "mpx_pipeline_receive_lag_ns") prefix = "recv";
    if (hist.name == "mpx_pipeline_analyze_lag_ns") prefix = "analyze";
    if (prefix == nullptr) continue;
    state.counters[std::string(prefix) + "_p50_ns"] =
        static_cast<double>(histogramPercentile(hist, 0.50));
    state.counters[std::string(prefix) + "_p99_ns"] =
        static_cast<double>(histogramPercentile(hist, 0.99));
    state.counters[std::string(prefix) + "_frames"] =
        static_cast<double>(hist.count);
  }
}
BENCHMARK(BM_PipelineLagE2E)->UseRealTime();

}  // namespace

MPX_BENCH_MAIN("pipeline_lag")
