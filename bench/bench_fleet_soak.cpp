// bench_fleet_soak — the multi-tenant fleet's capacity numbers.
//
// Three questions CI reads out of BENCH_fleet_soak.json:
//   1. With 100+ concurrent tenant sessions live in one observer, is the
//      per-tenant working set FLAT?  Every tenant runs the same trace, so
//      any spread between the largest and smallest per-session accounted
//      byte count is cross-tenant interference (tenant_spread_pct; the
//      budget model counts the arenas + frontier per session, and
//      rss_bytes_per_tenant cross-checks it against the process RSS).
//   2. What does an epoch cost on disk?  checkpoint_bytes_total and
//      checkpoint_bytes_per_session for a full-fleet snapshot, plus the
//      encode+write time as the benchmark's ns/op.
//   3. How fast does a fleet node come back?  Restore latency for the
//      whole snapshot (decode + rebuild every session), with
//      restore_ns_per_session for the per-tenant figure.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "net/snapshot.hpp"
#include "observer/checkpoint.hpp"
#include "trace/event.hpp"
#include "trace/var_table.hpp"
#include "vc/vector_clock.hpp"

namespace {

using namespace mpx;

constexpr std::uint64_t kEventsPerThread = 24;

/// Two independent threads, thread 0 writing g0 and thread 1 writing g1:
/// the lattice is a (kEventsPerThread+1)^2 grid, so every session carries a
/// real frontier, monitor set and witness DAG — not a degenerate chain.
std::vector<trace::Message> gridStream() {
  std::vector<trace::Message> out;
  out.reserve(2 * kEventsPerThread);
  for (std::uint64_t i = 1; i <= kEventsPerThread; ++i) {
    for (ThreadId t = 0; t < 2; ++t) {
      trace::Message m;
      m.event.kind = trace::EventKind::kWrite;
      m.event.thread = t;
      m.event.var = t;
      m.event.value = static_cast<Value>(i);
      m.event.localSeq = i;
      m.event.globalSeq = 2 * i + t;
      m.clock = vc::VectorClock(2);
      m.clock.set(t, i);
      out.push_back(std::move(m));
    }
  }
  return out;
}

analysis::AnalyzerSession::Config sessionConfig() {
  analysis::AnalyzerSession::Config cfg;
  cfg.threads = 2;
  cfg.specs = {"historically g0 <= g1 + 5"};
  cfg.handshakeSpecs = cfg.specs;
  cfg.tracked = {"g0", "g1"};
  cfg.vars.intern("g0", 0);
  cfg.vars.intern("g1", 1);
  return cfg;
}

/// Builds `tenants` mid-trace sessions (streams deliberately NOT ended:
/// a soak measures live state, not finished verdicts).
std::vector<std::unique_ptr<analysis::AnalyzerSession>> buildFleet(
    std::size_t tenants, const std::vector<trace::Message>& msgs) {
  std::vector<std::unique_ptr<analysis::AnalyzerSession>> fleet;
  fleet.reserve(tenants);
  for (std::size_t i = 0; i < tenants; ++i) {
    auto s = std::make_unique<analysis::AnalyzerSession>(sessionConfig());
    const char* err = nullptr;
    for (const auto& m : msgs) (void)s->ingest(m, &err);
    fleet.push_back(std::move(s));
  }
  return fleet;
}

std::vector<net::SnapshotEntry> checkpointFleet(
    const std::vector<std::unique_ptr<analysis::AnalyzerSession>>& fleet) {
  std::vector<net::SnapshotEntry> entries;
  entries.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    observer::ckpt::Writer w;
    fleet[i]->checkpoint(w);
    entries.push_back(net::SnapshotEntry{"tenant" + std::to_string(i),
                                         i + 1, w.take()});
  }
  return entries;
}

/// Current VmRSS in bytes (0 when /proc is unavailable).
std::size_t processRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      std::size_t kb = 0;
      in >> kb;
      return kb * 1024;
    }
    in.ignore(1 << 10, '\n');
  }
  return 0;
}

/// 100+ tenants live at once: per-tenant accounted bytes must be flat
/// (identical traces => identical sessions; any spread is interference),
/// and the process RSS per tenant gives the physical cross-check.
void BM_FleetSoakLiveSessions(benchmark::State& state) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  const auto msgs = gridStream();
  std::size_t peak = 0;
  std::size_t low = 0;
  std::size_t total = 0;
  std::size_t rssPerTenant = 0;
  for (auto _ : state) {
    const std::size_t rssBefore = processRssBytes();
    auto fleet = buildFleet(tenants, msgs);
    const std::size_t rssAfter = processRssBytes();
    peak = 0;
    low = fleet.front()->stats().accountedBytes;
    total = 0;
    for (const auto& s : fleet) {
      const std::size_t b = s->stats().accountedBytes;
      peak = std::max(peak, b);
      low = std::min(low, b);
      total += b;
    }
    if (rssAfter > rssBefore) {
      rssPerTenant = (rssAfter - rssBefore) / tenants;
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["tenants"] = static_cast<double>(tenants);
  state.counters["peak_tenant_bytes"] = static_cast<double>(peak);
  state.counters["mean_tenant_bytes"] =
      static_cast<double>(total) / static_cast<double>(tenants);
  state.counters["tenant_spread_pct"] =
      low > 0 ? 100.0 * static_cast<double>(peak - low) /
                    static_cast<double>(low)
              : 0.0;
  state.counters["rss_bytes_per_tenant"] = static_cast<double>(rssPerTenant);
}
BENCHMARK(BM_FleetSoakLiveSessions)->Arg(128)->Unit(benchmark::kMillisecond);

/// One full-fleet epoch: serialize every session and write the framed,
/// CRC-sealed snapshot file (tmp + fsync + rename, as the daemon does).
void BM_FleetCheckpointEpoch(benchmark::State& state) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  const auto msgs = gridStream();
  const auto fleet = buildFleet(tenants, msgs);
  const std::string path = "/tmp/bench_fleet_soak.snapshot";
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto entries = checkpointFleet(fleet);
    const char* err = nullptr;
    const bool ok = net::writeSnapshotFile(path, entries, &err);
    if (!ok) state.SkipWithError(err != nullptr ? err : "write failed");
    bytes = 0;
    for (const auto& e : entries) bytes += e.blob.size();
    benchmark::DoNotOptimize(entries);
  }
  std::remove(path.c_str());
  state.counters["tenants"] = static_cast<double>(tenants);
  state.counters["checkpoint_bytes_total"] = static_cast<double>(bytes);
  state.counters["checkpoint_bytes_per_session"] =
      static_cast<double>(bytes) / static_cast<double>(tenants);
}
BENCHMARK(BM_FleetCheckpointEpoch)->Arg(128)->Unit(benchmark::kMillisecond);

/// Node restart: decode the snapshot and rebuild every session from its
/// blob — the latency between a fleet node dying and its tenants being
/// served again (the daemon does exactly this in start()).
void BM_FleetRestore(benchmark::State& state) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  const auto msgs = gridStream();
  const auto fleet = buildFleet(tenants, msgs);
  const std::vector<std::uint8_t> snapshot =
      net::encodeSnapshot(checkpointFleet(fleet));
  std::size_t restored = 0;
  for (auto _ : state) {
    std::vector<net::SnapshotEntry> entries;
    const char* err = nullptr;
    if (!net::decodeSnapshot(snapshot.data(), snapshot.size(), entries,
                             &err)) {
      state.SkipWithError(err != nullptr ? err : "decode failed");
      break;
    }
    restored = 0;
    for (const auto& e : entries) {
      observer::ckpt::Reader r(e.blob);
      auto s = analysis::AnalyzerSession::restore(r);
      if (s == nullptr) {
        state.SkipWithError("session restore failed");
        break;
      }
      ++restored;
      benchmark::DoNotOptimize(s);
    }
  }
  state.counters["tenants"] = static_cast<double>(tenants);
  state.counters["sessions_restored"] = static_cast<double>(restored);
  state.counters["restore_sec_per_session"] = benchmark::Counter(
      static_cast<double>(tenants), benchmark::Counter::kIsIterationInvariantRate |
                                        benchmark::Counter::kInvert);
}
BENCHMARK(BM_FleetRestore)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace

MPX_BENCH_MAIN("fleet_soak")
