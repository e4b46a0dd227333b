// Deterministic tier-1 stand-in for the CI fuzz job: replays the seed
// corpus inputs and thousands of seeded mutations of them through the
// exact fuzz drivers the libFuzzer targets use (fuzz_harness.hpp).  The
// container toolchain has no libFuzzer (gcc only), so this smoke keeps the
// drivers and their invariants exercised on every build; the clang fuzz
// targets run the same code open-endedly in CI.
//
// Any crash CI fuzzing finds lands here as a named regression input.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "../support/level_oracle.hpp"
#include "../support/trace_gen.hpp"
#include "analysis/engine.hpp"
#include "analysis/session.hpp"
#include "fuzz_harness.hpp"
#include "program/corpus.hpp"
#include "program/scheduler.hpp"

namespace mpx::testing::fuzz {
namespace {

using Driver = void (*)(const std::uint8_t*, std::size_t);

void sweep(Driver drive, const std::vector<std::uint8_t>& seed,
           std::uint64_t mutations, std::uint64_t salt) {
  drive(seed.data(), seed.size());
  // Every prefix: incremental parsers must treat truncation as kNeedMore,
  // never as UB.
  for (std::size_t n = 0; n <= seed.size(); ++n) {
    drive(seed.data(), n);
  }
  for (std::uint64_t s = 1; s <= mutations; ++s) {
    const std::vector<std::uint8_t> m = mutateSeed(seed, salt ^ s);
    drive(m.data(), m.size());
  }
  // Pure junk, no valid structure at all.
  std::mt19937_64 rng(salt * 31 + 7);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> junk(rng() % 300);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    drive(junk.data(), junk.size());
  }
}

TEST(FuzzSmoke, FrameReader) {
  sweep(&driveFrameReader, seedFrameStream(), 3000, 0xA11CE);
}

TEST(FuzzSmoke, Codec) { sweep(&driveCodec, seedEventsPayload(), 3000, 0xB0B); }

TEST(FuzzSmoke, CodecRegionEvents) {
  sweep(&driveCodec, seedRegionEventsPayload(), 3000, 0x4E6104);
}

TEST(FuzzSmoke, HandshakeV2) {
  sweep(&driveHandshake, seedHandshakePayload(net::kProtocolVersion), 3000,
        0xC0FFEE);
}

TEST(FuzzSmoke, HandshakeV1) {
  sweep(&driveHandshake, seedHandshakePayload(net::kLegacyProtocolVersion),
        3000, 0xDECAF);
}

TEST(FuzzSmoke, SparseClock) {
  sweep(&driveSparseClock, seedSparseEventsPayload(), 3000, 0x5BA45E);
}

TEST(FuzzSmoke, Snapshot) {
  sweep(&driveSnapshot, seedSnapshotBytes(), 3000, 0x5EA15);
}

TEST(FuzzSmoke, SnapshotValidSeedIsAcceptedAndCanonical) {
  // The unmutated seed must pass the decoder and satisfy the driver's
  // byte-identical re-encode invariant (the sweep above mostly exercises
  // the reject paths, since any mutation breaks the CRC).
  const auto seed = seedSnapshotBytes();
  std::vector<net::SnapshotEntry> entries;
  const char* error = nullptr;
  ASSERT_TRUE(net::decodeSnapshot(seed.data(), seed.size(), entries, &error))
      << error;
  EXPECT_EQ(entries.size(), 3u);
  driveSnapshot(seed.data(), seed.size());
}

// Regressions: inputs that once violated a driver invariant stay pinned by
// name so the exact bytes are re-checked forever.
TEST(FuzzSmoke, RegressionHugeClockSize) {
  // A hostile clockSize word must be rejected without allocation: header
  // of a valid message with clockSize = 0xffffffff.
  std::vector<std::uint8_t> bytes;
  trace::BinaryCodec::encode(seedMessage(1), bytes);
  // clockSize lives right after kind(1)+thread(4)+var(4)+value(8)+
  // localSeq(8)+globalSeq(8) = offset 33.
  const std::uint32_t huge = 0xffffffffu;
  std::memcpy(bytes.data() + 33, &huge, 4);
  const trace::DecodeResult r =
      trace::BinaryCodec::tryDecode(bytes.data(), bytes.size());
  EXPECT_EQ(r.status, trace::DecodeStatus::kCorrupt);
  driveCodec(bytes.data(), bytes.size());
}

TEST(FuzzSmoke, RegressionTrailingZeroClockComponents) {
  // Found by the mutation sweep: a wire clock with TRAILING ZERO components
  // decodes to a logically equal but shorter clock (zeros beyond the stored
  // size are implicit — vector_clock.hpp), so the canonical re-encode is
  // shorter than the consumed bytes.  The codec accepts the non-canonical
  // form by design; the driver checks the semantic round trip instead of
  // byte identity.  Pin the exact shape: clock (1, 3, 0).
  trace::Message m = seedMessage(1);
  m.clock = vc::VectorClock(3);
  m.clock.set(0, 1);
  m.clock.set(1, 3);
  std::vector<std::uint8_t> bytes;
  trace::BinaryCodec::encode(m, bytes);
  const trace::DecodeResult r =
      trace::BinaryCodec::tryDecode(bytes.data(), bytes.size());
  ASSERT_EQ(r.status, trace::DecodeStatus::kOk);
  EXPECT_EQ(r.consumed, bytes.size());
  EXPECT_EQ(r.message.clock, m.clock);
  driveCodec(bytes.data(), bytes.size());
}

TEST(FuzzSmoke, RegressionPayloadAtReaderCap) {
  // A frame whose declared payload sits exactly at the reader's cap must
  // parse; one past it must be corrupt — the driver asserts both via the
  // buffered-bytes bound.
  std::vector<std::uint8_t> atCap;
  net::appendFrame(atCap, net::FrameType::kEvents,
                   std::vector<std::uint8_t>(4096, 0));
  driveFrameReader(atCap.data(), atCap.size());
  std::vector<std::uint8_t> pastCap;
  net::appendFrame(pastCap, net::FrameType::kEvents,
                   std::vector<std::uint8_t>(4097, 0));
  driveFrameReader(pastCap.data(), pastCap.size());
}

TEST(FuzzSmoke, RegressionEmptyAndHeaderOnlyInputs) {
  driveFrameReader(nullptr, 0);
  driveCodec(nullptr, 0);
  driveHandshake(nullptr, 0);
  driveSparseClock(nullptr, 0);
  driveSnapshot(nullptr, 0);
  const std::vector<std::uint8_t> stream = seedFrameStream();
  driveFrameReader(stream.data(), net::kFrameHeaderSize);
}

TEST(FuzzSmoke, RegressionRegionBeginWithoutEnd) {
  // Pinned as tests/net/corpus/codec/region-begin-without-end.bin: a region
  // opened and never closed.  The codec is segmentation-blind — the stream
  // decodes message by message and round-trips; only the analysis layer
  // interprets open regions.
  const auto bytes = seedRegionBeginWithoutEnd();
  const trace::DecodeResult r =
      trace::BinaryCodec::tryDecode(bytes.data(), bytes.size());
  ASSERT_EQ(r.status, trace::DecodeStatus::kOk);
  EXPECT_EQ(r.message.event.kind, trace::EventKind::kRegionBegin);
  EXPECT_EQ(r.message.event.var, kNoVar);
  EXPECT_EQ(r.message.event.value, 11);
  driveCodec(bytes.data(), bytes.size());
  driveSparseClock(bytes.data(), bytes.size());
}

TEST(FuzzSmoke, RegressionRegionHostileId) {
  // Pinned as tests/net/corpus/codec/region-hostile-id.bin: extreme region
  // ids (INT64_MIN/MAX), an end with no begin, and a marker carrying a var
  // id.  All must decode and survive the round-trip invariants.
  const auto bytes = seedRegionHostileId();
  const trace::DecodeResult r =
      trace::BinaryCodec::tryDecode(bytes.data(), bytes.size());
  ASSERT_EQ(r.status, trace::DecodeStatus::kOk);
  EXPECT_EQ(r.message.event.kind, trace::EventKind::kRegionEnd);
  EXPECT_EQ(r.message.event.value, std::numeric_limits<Value>::min());
  driveCodec(bytes.data(), bytes.size());
  driveSparseClock(bytes.data(), bytes.size());
}

TEST(FuzzSmoke, RegressionKindPastRegionEnd) {
  // The kind-byte bound moved from kAtomicUpdate to kRegionEnd with wire
  // v6; one past it must stay kCorrupt in both codecs.
  std::vector<std::uint8_t> bytes;
  trace::BinaryCodec::encode(seedMessage(1), bytes);
  bytes[0] = static_cast<std::uint8_t>(trace::EventKind::kRegionEnd) + 1;
  EXPECT_EQ(trace::BinaryCodec::tryDecode(bytes.data(), bytes.size()).status,
            trace::DecodeStatus::kCorrupt);
  driveCodec(bytes.data(), bytes.size());
  bytes[0] = static_cast<std::uint8_t>(trace::EventKind::kRegionEnd);
  EXPECT_EQ(trace::BinaryCodec::tryDecode(bytes.data(), bytes.size()).status,
            trace::DecodeStatus::kOk);
}

/// A sparse-coded message header (all-zero event: kind kInternal, thread 0)
/// followed by the given mode byte and tail.
std::vector<std::uint8_t> sparseMessageWithTail(
    std::uint8_t mode, const std::vector<std::uint8_t>& tail) {
  std::vector<std::uint8_t> bytes(33, 0);  // zeroed fixed event header
  bytes.push_back(mode);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  return bytes;
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

TEST(FuzzSmoke, RegressionSparseDeltaWithoutBase) {
  // Mode 2 (delta) as the first message of a frame has no in-frame base for
  // its thread: must be kCorrupt, never a join against stale cross-frame
  // state.  Entry list {idx 0 -> 5} is otherwise well-formed.
  std::vector<std::uint8_t> tail;
  put32(tail, 1);
  put32(tail, 0);
  put64(tail, 5);
  const auto bytes = sparseMessageWithTail(trace::SparseClockCodec::kModeDelta,
                                           tail);
  trace::SparseClockCodec::FrameState st;
  const trace::DecodeResult r =
      trace::SparseClockCodec::tryDecode(bytes.data(), bytes.size(), st);
  EXPECT_EQ(r.status, trace::DecodeStatus::kCorrupt);
  driveSparseClock(bytes.data(), bytes.size());
}

TEST(FuzzSmoke, RegressionSparseAtCapComponentCounts) {
  // Counts at and one past BinaryCodec::kMaxClockComponents: the cap itself
  // is accepted (truncated input -> kNeedMore without a giant allocation
  // up-front is fine; a full valid body would be ~768 KiB so we only probe
  // the header), one past it is rejected immediately.
  std::vector<std::uint8_t> atCap;
  put32(atCap, trace::BinaryCodec::kMaxClockComponents);
  const auto capBytes = sparseMessageWithTail(
      trace::SparseClockCodec::kModeSparse, atCap);
  trace::SparseClockCodec::FrameState st;
  EXPECT_EQ(trace::SparseClockCodec::tryDecode(capBytes.data(),
                                               capBytes.size(), st)
                .status,
            trace::DecodeStatus::kNeedMore);
  driveSparseClock(capBytes.data(), capBytes.size());

  std::vector<std::uint8_t> pastCap;
  put32(pastCap, trace::BinaryCodec::kMaxClockComponents + 1);
  const auto pastBytes = sparseMessageWithTail(
      trace::SparseClockCodec::kModeSparse, pastCap);
  st.reset();
  EXPECT_EQ(trace::SparseClockCodec::tryDecode(pastBytes.data(),
                                               pastBytes.size(), st)
                .status,
            trace::DecodeStatus::kCorrupt);
  driveSparseClock(pastBytes.data(), pastBytes.size());
}

TEST(FuzzSmoke, RegressionSparseHostileIndices) {
  // Duplicate, descending, and out-of-range component indices must all be
  // kCorrupt — the strictly-increasing rule is what makes the encoding
  // canonical and the re-encode fixpoint sound.
  const auto probe = [](std::uint32_t a, std::uint32_t b) {
    std::vector<std::uint8_t> tail;
    put32(tail, 2);
    put32(tail, a);
    put64(tail, 1);
    put32(tail, b);
    put64(tail, 1);
    const auto bytes = sparseMessageWithTail(
        trace::SparseClockCodec::kModeSparse, tail);
    trace::SparseClockCodec::FrameState st;
    const trace::DecodeResult r =
        trace::SparseClockCodec::tryDecode(bytes.data(), bytes.size(), st);
    EXPECT_EQ(r.status, trace::DecodeStatus::kCorrupt)
        << "indices " << a << "," << b;
    driveSparseClock(bytes.data(), bytes.size());
  };
  probe(4, 4);                                         // duplicate
  probe(9, 2);                                         // descending
  probe(1, trace::BinaryCodec::kMaxClockComponents);   // out of range
}

// ===================================================================
// Session checkpoint blobs: AnalyzerSession::restore reads an untrusted
// snapshot and rebuilds the analyzer's frontier from it.
// ===================================================================

/// A session configuration with the stream it analyzes; the blob under test
/// is the checkpoint taken after `midpoint` messages.
struct BlobCase {
  std::string name;
  analysis::AnalyzerSession::Config cfg;
  std::vector<trace::Message> msgs;
  std::size_t midpoint = 0;
};

/// A corpus or generated program run through the engine: its spec, the
/// variables the engine tracked and its messages in observed order.
BlobCase programCase(std::string name, const program::Program& prog,
                     const std::string& spec,
                     std::optional<std::vector<ThreadId>> schedule,
                     std::uint64_t seed,
                     std::vector<std::string> extraTracked = {},
                     std::vector<std::string> analyses = {}) {
  analysis::EngineConfig ec;
  ec.specs = {spec};
  ec.extraTrackedVars = extraTracked;
  const analysis::Engine engine(prog, ec);
  analysis::EngineResult r;
  if (schedule) {
    program::FixedScheduler sched(*schedule);
    program::Executor ex(prog, sched);
    r = engine.run(ex.run(), {});
  } else {
    r = engine.runWithSeed(seed);
  }
  BlobCase c;
  c.name = std::move(name);
  c.cfg.threads = static_cast<std::uint32_t>(prog.threadCount());
  c.cfg.specs = {spec};
  c.cfg.handshakeSpecs = c.cfg.specs;
  for (std::size_t slot = 0; slot < r.space.size(); ++slot) {
    c.cfg.tracked.push_back(r.space.name(slot));
  }
  c.cfg.vars = prog.vars;
  c.cfg.analyses = std::move(analyses);
  for (const auto& ref : r.causality.observedOrder()) {
    c.msgs.push_back(r.causality.message(ref));
  }
  c.midpoint = c.msgs.size() / 2;
  return c;
}

/// A generated stream of `relevant` messages.
BlobCase streamCase(std::string name, std::uint64_t seed,
                    std::size_t relevant) {
  const StreamCase s = generateStreamCase(seed, relevant);
  BlobCase c;
  c.name = std::move(name);
  c.cfg.threads = static_cast<std::uint32_t>(s.threads);
  c.cfg.specs = {s.spec};
  c.cfg.handshakeSpecs = c.cfg.specs;
  c.cfg.tracked = s.tracked;
  c.cfg.vars = s.vars;
  c.msgs = s.msgs;
  c.midpoint = c.msgs.size() / 2;
  return c;
}

std::vector<BlobCase> blobCases() {
  namespace corpus = program::corpus;
  std::vector<BlobCase> out;
  out.push_back(programCase("landing", corpus::landingController(),
                            corpus::landingProperty(),
                            corpus::landingObservedSchedule(), 0));
  {
    // Checkpointed inside the demo's atomic region, which is still open.
    BlobCase c = programCase("atomicity+mhp demo", corpus::atomicityDemo(),
                             "acct <= 100",
                             corpus::atomicityDemoViolatingSchedule(), 0,
                             {"acct", "audit"}, {"atomicity", "mhp"});
    for (std::size_t i = 0; i < c.msgs.size(); ++i) {
      if (c.msgs[i].event.kind == trace::EventKind::kRegionBegin) {
        c.midpoint = i + 2;
        break;
      }
    }
    out.push_back(std::move(c));
  }
  for (const std::uint64_t seed : {7u, 8u, 11u, 14u, 20u, 25u}) {
    const GeneratedCase g = generateCase(seed);
    std::vector<std::string> tracked;
    for (std::size_t i = 0; i < g.options.vars; ++i) {
      tracked.push_back("g" + std::to_string(i));
    }
    out.push_back(programCase("generated case " + std::to_string(seed),
                              g.program, g.spec, std::nullopt,
                              g.scheduleSeed, tracked));
  }
  out.push_back(streamCase("2-thread stream, 400 messages", 3, 400));
  out.push_back(streamCase("3-thread stream, 300 messages", 4, 300));
  {
    BlobCase c = streamCase("4-thread stream under a memory budget", 5, 200);
    c.cfg.lattice.memoryBudgetBytes = 16 * 1024;
    out.push_back(std::move(c));
  }
  {
    BlobCase c = streamCase("4-thread stream under a frontier cap", 8, 200);
    c.cfg.lattice.maxFrontier = 3;
    out.push_back(std::move(c));
  }
  {
    // Open regions at the checkpoint: the demo's three rounds, cut in the
    // middle of the second.
    BlobCase c = programCase("atomicity demo, 3 rounds",
                             corpus::atomicityDemo(3), "acct <= 300",
                             std::nullopt, 17, {"acct", "audit"},
                             {"atomicity"});
    std::size_t begins = 0;
    for (std::size_t i = 0; i < c.msgs.size(); ++i) {
      if (c.msgs[i].event.kind == trace::EventKind::kRegionBegin &&
          ++begins == 2) {
        c.midpoint = i + 1;
        break;
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// Restores `blob`; when accepted, feeds the rest of the stream, finishes
/// and renders.  Returns whether restore accepted the blob.
bool driveSessionBlob(const std::vector<std::uint8_t>& blob,
                      const BlobCase& c) {
  observer::ckpt::Reader r(blob);
  std::unique_ptr<analysis::AnalyzerSession> s;
  EXPECT_NO_THROW(s = analysis::AnalyzerSession::restore(r)) << c.name;
  if (s == nullptr) return false;
  const char* err = nullptr;
  for (std::size_t i = c.midpoint; i < c.msgs.size(); ++i) {
    (void)s->ingest(c.msgs[i], &err);
  }
  for (int i = 0; i < 4 && !s->finished(); ++i) s->noteStreamEnd();
  (void)s->renderReport();
  (void)s->analysisReports();
  return true;
}

/// Mid-stream blobs of every case, with values of width 1, 2, 4 and 8
/// overwritten at seeded offsets, and truncated at seeded lengths.  Restore
/// may reject a mutated blob but must never crash, throw or hang, and the
/// session it accepts must finish and render; no truncated blob is
/// accepted.
TEST(FuzzSmoke, SessionBlob) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const BlobCase& c : blobCases()) {
    ASSERT_GT(c.midpoint, 0u) << c.name;
    ASSERT_LT(c.midpoint, c.msgs.size()) << c.name;
    analysis::AnalyzerSession session(c.cfg);
    const char* err = nullptr;
    for (std::size_t i = 0; i < c.midpoint; ++i) {
      ASSERT_NE(session.ingest(c.msgs[i], &err),
                analysis::AnalyzerSession::Ingest::kError)
          << c.name << ": " << err;
    }
    observer::ckpt::Writer w;
    session.checkpoint(w);
    const std::vector<std::uint8_t> blob = w.take();
    ASSERT_TRUE(driveSessionBlob(blob, c)) << c.name;

    std::mt19937_64 rng(std::hash<std::string>{}(c.name));
    const std::uint64_t interesting[] = {0, 1, 2, 0x7f, 0x80, 0xff, 0xffff,
                                         0xffffffffull, ~std::uint64_t{0}};
    for (int i = 0; i < 400; ++i) {
      const std::size_t width = std::size_t{1} << (i % 4);
      if (blob.size() < width) continue;
      std::vector<std::uint8_t> m = blob;
      const std::size_t at = rng() % (blob.size() - width + 1);
      const std::uint64_t v =
          rng() % 2 == 0 ? interesting[rng() % std::size(interesting)] : rng();
      for (std::size_t b = 0; b < width; ++b) {
        m[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
      }
      ++(driveSessionBlob(m, c) ? accepted : rejected);
    }
    for (int i = 0; i < 100; ++i) {
      const std::vector<std::uint8_t> m(
          blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(
                                           rng() % blob.size()));
      ASSERT_FALSE(driveSessionBlob(m, c))
          << c.name << ": truncated to " << m.size() << " of " << blob.size();
    }
  }
  // Both paths ran: mutated blobs that restore and finish, and ones that
  // restore rejects.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace mpx::testing::fuzz
