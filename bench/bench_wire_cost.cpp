// Wire cost of Algorithm A's message streams: v3 dense vs v4 sparse clock
// coding on the same instrumented stream, across thread widths.
//
// The certified artifact is the byte counters, not wall-clock:
// `wire_bytes` (the coding under test) and `wire_bytes_dense` (the dense
// baseline) are exported as user counters into BENCH_wire_cost.json, and
// CI asserts that sparse coding never exceeds dense on the wide traces.
//
// Patterns:
//   hot-lock  — every thread hammers one variable: clocks converge fast
//               and most components stay unchanged between messages.
//   disjoint  — each thread touches only its own variable: each clock
//               carries little beyond its own component.
//   fan-in    — threads write their own variable, one collector thread
//               sweeps all of them: the collector's clock is dense.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/instrumentor.hpp"
#include "net/wire.hpp"
#include "trace/channel.hpp"
#include "trace/codec.hpp"

namespace {

using namespace mpx;

enum class Pattern { kHotLock, kDisjoint, kFanIn };

const char* patternName(Pattern p) {
  switch (p) {
    case Pattern::kHotLock: return "hot_lock";
    case Pattern::kDisjoint: return "disjoint";
    case Pattern::kFanIn: return "fan_in";
  }
  return "?";
}

/// Builds a seeded event schedule for one pattern.  Shapes are chosen so
/// every pattern emits ~threads*rounds events and keeps localSeq/globalSeq
/// consistent (the instrumentor does not require them, but the wire-cost
/// benchmarks reuse the emitted messages downstream).
std::vector<trace::Event> makeSchedule(Pattern p, std::size_t threads,
                                       std::size_t rounds,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<trace::Event> out;
  std::vector<LocalSeq> local(threads, 1);
  GlobalSeq g = 1;
  const auto push = [&](ThreadId t, VarId x, trace::EventKind k) {
    trace::Event e;
    e.thread = t;
    e.var = x;
    e.kind = k;
    e.value = static_cast<Value>(rng() % 100);
    e.localSeq = local[t]++;
    e.globalSeq = g++;
    out.push_back(e);
  };
  for (std::size_t r = 0; r < rounds; ++r) {
    switch (p) {
      case Pattern::kHotLock:
        // Random thread order each round, everyone acquires lock 0.
        for (std::size_t t = 0; t < threads; ++t) {
          push(static_cast<ThreadId>(rng() % threads), 0,
               trace::EventKind::kLockAcquire);
        }
        break;
      case Pattern::kDisjoint:
        for (std::size_t t = 0; t < threads; ++t) {
          push(static_cast<ThreadId>(t), static_cast<VarId>(t),
               rng() % 2 ? trace::EventKind::kWrite
                         : trace::EventKind::kRead);
        }
        break;
      case Pattern::kFanIn:
        // Producers write their own slot, then thread 0 sweeps them all.
        for (std::size_t t = 1; t < threads; ++t) {
          push(static_cast<ThreadId>(t), static_cast<VarId>(t),
               trace::EventKind::kWrite);
        }
        for (std::size_t t = 1; t < threads; ++t) {
          push(0, static_cast<VarId>(t), trace::EventKind::kRead);
        }
        break;
    }
  }
  return out;
}

void BM_WireCost(benchmark::State& state) {
  // Dense (v3 kEventsTs body) vs sparse (v4 kEventsSparse body) byte cost
  // for the same instrumented stream.  Throughput is secondary on the
  // 1-CPU runner; `wire_bytes` and `wire_bytes_dense` are the artifact.
  const auto pattern = static_cast<Pattern>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const bool sparse = state.range(2) != 0;
  constexpr std::size_t kRounds = 64;
  const auto schedule = makeSchedule(pattern, threads, kRounds, 0xC10Cu);
  trace::CollectingSink sink;
  core::Instrumentor ins(core::RelevancePolicy::allSharedAccesses(), sink);
  ins.reserve(threads, threads);
  for (const trace::Event& e : schedule) ins.onEvent(e);
  const std::vector<trace::Message> stream = sink.take();

  std::size_t bytes = 0;
  std::size_t denseBytes = 0;
  for (auto _ : state) {
    std::vector<std::uint8_t> payload;
    if (sparse) {
      trace::SparseClockCodec::FrameState st;
      for (const trace::Message& m : stream) {
        trace::SparseClockCodec::encode(m, st, payload);
      }
    } else {
      for (const trace::Message& m : stream) {
        trace::BinaryCodec::encode(m, payload);
      }
    }
    bytes = payload.size();
    benchmark::DoNotOptimize(payload.data());
  }
  denseBytes = trace::BinaryCodec::encodeAll(stream).size();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["wire_bytes"] = static_cast<double>(bytes);
  state.counters["wire_bytes_dense"] = static_cast<double>(denseBytes);
  state.SetLabel(std::string(patternName(pattern)) + "/" +
                 (sparse ? "v4_sparse" : "v3_dense"));
}

void registerArgs(benchmark::internal::Benchmark* b) {
  for (const Pattern p :
       {Pattern::kHotLock, Pattern::kDisjoint, Pattern::kFanIn}) {
    for (const int threads : {2, 8, 32, 128}) {
      for (const int variant : {0, 1}) {
        b->Args({static_cast<int>(p), threads, variant});
      }
    }
  }
}

BENCHMARK(BM_WireCost)->Apply(registerArgs);

}  // namespace

MPX_BENCH_MAIN("wire_cost");
