// Wire-coding differential certification: 500 seeded random traces, each
// instrumented once by Algorithm A.  Every wire version (v2 dense, v3
// timestamped dense, v4 sparse) must round-trip the emitted message stream
// back to the same BinaryCodec bytes.  This is the contract that lets the
// clock coding be chosen per trace without any observer-side consequence.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/instrumentor.hpp"
#include "net/wire.hpp"
#include "trace/channel.hpp"
#include "trace/codec.hpp"

namespace mpx::core {
namespace {

struct TraceShape {
  std::size_t threads;
  std::size_t vars;
  std::size_t events;
};

/// Derives a shape from the seed so the sweep covers narrow, SBO-boundary
/// and wide regimes without a hand-picked case list.
TraceShape shapeFor(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  static constexpr std::size_t kWidths[] = {1, 2, 3, 7, 8, 9, 16, 33};
  TraceShape s;
  s.threads = kWidths[rng() % std::size(kWidths)];
  s.vars = 1 + rng() % 4;
  s.events = 30 + rng() % 40;
  return s;
}

std::vector<trace::Event> randomTrace(std::uint64_t seed,
                                      const TraceShape& s) {
  std::mt19937_64 rng(seed);
  std::vector<trace::Event> events;
  std::vector<LocalSeq> nextLocal(s.threads, 1);
  for (std::size_t n = 0; n < s.events; ++n) {
    trace::Event e;
    e.thread = static_cast<ThreadId>(rng() % s.threads);
    e.var = static_cast<VarId>(rng() % s.vars);
    const std::uint64_t k = rng() % 4;
    e.kind = k == 0 ? trace::EventKind::kRead
             : k == 1 ? trace::EventKind::kLockAcquire
                      : trace::EventKind::kWrite;
    e.value = static_cast<Value>(rng() % 100);
    e.localSeq = nextLocal[e.thread]++;
    e.globalSeq = n + 1;
    events.push_back(e);
  }
  return events;
}

/// Instruments the trace; returns the emitted message stream.
std::vector<trace::Message> emit(const std::vector<trace::Event>& events,
                                 const TraceShape& s) {
  trace::CollectingSink sink;
  Instrumentor ins(RelevancePolicy::allSharedAccesses(), sink);
  ins.reserve(s.threads, s.vars);
  for (const trace::Event& e : events) ins.onEvent(e);
  return sink.take();
}

/// Round-trips `bytes`' messages through one wire version and re-encodes
/// densely; any coding difference shows up as a byte difference here.
std::vector<std::uint8_t> throughWire(const std::vector<trace::Message>& ms,
                                      std::uint16_t version) {
  std::vector<std::uint8_t> payload;
  std::vector<trace::Message> back;
  const char* error = nullptr;
  if (version >= net::kSparseClockProtocolVersion) {
    payload.resize(net::kEventsTsPrefixSize, 0);
    trace::SparseClockCodec::FrameState st;
    for (const trace::Message& m : ms) {
      trace::SparseClockCodec::encode(m, st, payload);
    }
    std::uint64_t sendNs = 0;
    EXPECT_TRUE(net::decodeEventsSparsePayload(payload, sendNs, back, &error))
        << error;
  } else if (version >= net::kTraceContextProtocolVersion) {
    payload.resize(net::kEventsTsPrefixSize, 0);
    for (const trace::Message& m : ms) {
      trace::BinaryCodec::encode(m, payload);
    }
    std::uint64_t sendNs = 0;
    EXPECT_TRUE(net::decodeEventsTsPayload(payload, sendNs, back, &error))
        << error;
  } else {
    for (const trace::Message& m : ms) {
      trace::BinaryCodec::encode(m, payload);
    }
    EXPECT_TRUE(net::decodeEventsPayload(payload, back, &error)) << error;
  }
  return trace::BinaryCodec::encodeAll(back);
}

TEST(BackendDifferential, FiveHundredSeedByteIdenticalSweep) {
  std::uint64_t wideSeeds = 0;
  std::uint64_t sparseSmallerOnWide = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const TraceShape s = shapeFor(seed);
    const auto events = randomTrace(seed, s);

    const auto flatMsgs = emit(events, s);
    const auto flatBytes = trace::BinaryCodec::encodeAll(flatMsgs);

    // Every wire version round-trips the stream to the same dense bytes.
    for (const std::uint16_t version :
         {net::kListSpecProtocolVersion, net::kTraceContextProtocolVersion,
          net::kSparseClockProtocolVersion}) {
      ASSERT_EQ(throughWire(flatMsgs, version), flatBytes)
          << "wire v" << version << " divergence at seed " << seed;
    }

    // Track the compression claim on the wide shapes (sparse must win
    // beyond the SBO width; at tiny widths dense can legitimately tie).
    if (s.threads > vc::VectorClock::kInlineComponents) {
      ++wideSeeds;
      trace::SparseClockCodec::FrameState st;
      std::vector<std::uint8_t> sparse;
      for (const trace::Message& m : flatMsgs) {
        trace::SparseClockCodec::encode(m, st, sparse);
      }
      if (sparse.size() < flatBytes.size()) ++sparseSmallerOnWide;
    }
  }
  ASSERT_GT(wideSeeds, 50u) << "sweep must include wide traces";
  EXPECT_EQ(sparseSmallerOnWide, wideSeeds)
      << "v4 coding must beat dense on every wide trace";
}

}  // namespace
}  // namespace mpx::core
