// AnalyzerSession construction and restore: the declared thread count is
// bounded by the widest clock the wire can carry, checked before anything
// is sized by it, and a checkpoint's retired option words cannot steer the
// restoring process.
#include "analysis/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "../support/fixtures.hpp"
#include "observer/checkpoint.hpp"
#include "program/corpus.hpp"
#include "trace/codec.hpp"

namespace mpx::analysis {
namespace {

AnalyzerSession::Config configWithThreads(std::uint32_t threads) {
  AnalyzerSession::Config cfg;
  cfg.threads = threads;
  return cfg;
}

TEST(AnalyzerSession, RejectsThreadsBeyondTheWidestDecodableClock) {
  // A thread j >= kMaxClockComponents can never send a message the codec
  // accepts, so declaring one is hostile input, not a big program.
  constexpr std::uint32_t kMax = trace::BinaryCodec::kMaxClockComponents;
  for (const std::uint32_t threads : {kMax + 1, 1u << 24}) {
    EXPECT_THROW(AnalyzerSession{configWithThreads(threads)},
                 std::runtime_error)
        << threads;
  }
  EXPECT_NO_THROW(AnalyzerSession{configWithThreads(kMax)});
}

/// Offset of the two retired lattice words (once the parallel jobs count
/// and minimum frontier) in a session blob: they follow the config fields
/// AnalyzerSession::checkpoint writes first.
std::size_t retiredWordsOffset(const std::vector<std::uint8_t>& blob) {
  observer::ckpt::Reader r(blob);
  (void)r.u8();   // layout version
  (void)r.u32();  // threads
  for (int list = 0; list < 4; ++list) {  // specs, handshake, tracked, analyses
    const std::uint64_t n = r.len(8);
    for (std::uint64_t i = 0; i < n; ++i) (void)r.str();
  }
  const std::uint32_t vars = r.u32();
  for (std::uint32_t v = 0; v < vars; ++v) {
    (void)r.str();
    (void)r.i64();
    (void)r.u8();
  }
  (void)r.u64();      // expected streams
  (void)r.u8();       // retention
  (void)r.u64();      // maxNodesPerLevel
  (void)r.u64();      // maxViolations
  (void)r.boolean();  // recordPaths
  for (int word = 0; word < 4; ++word) (void)r.u64();  // beam .. seed
  EXPECT_TRUE(r.ok());
  return blob.size() - r.remaining();
}

void putU64(std::vector<std::uint8_t>& blob, std::size_t at,
            std::uint64_t v) {
  for (unsigned b = 0; b < 8; ++b) {
    blob.at(at + b) = static_cast<std::uint8_t>(v >> (8 * b));
  }
}

std::uint64_t getU64(const std::vector<std::uint8_t>& blob, std::size_t at) {
  std::uint64_t v = 0;
  for (unsigned b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(blob.at(at + b)) << (8 * b);
  }
  return v;
}

TEST(AnalyzerSession, RestoreIgnoresTheRetiredJobsWords) {
  // A snapshot is untrusted input: a blob that names 2^40 in the word that
  // once chose a worker count must restore to the same analysis as the
  // unforged blob, starting no thread.
  const auto c = mpx::testing::landingComputation();
  AnalyzerSession::Config cfg;
  cfg.threads = static_cast<std::uint32_t>(c.prog.threadCount());
  cfg.specs = {program::corpus::landingProperty()};
  cfg.handshakeSpecs = cfg.specs;
  cfg.tracked = {"landing", "approved", "radio"};
  cfg.vars = c.prog.vars;

  std::vector<trace::Message> msgs;
  for (const auto& ref : c.graph.observedOrder()) {
    msgs.push_back(c.graph.message(ref));
  }
  ASSERT_GE(msgs.size(), 2u);
  const std::size_t half = msgs.size() / 2;
  const char* err = nullptr;
  AnalyzerSession live(cfg);
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_NE(live.ingest(msgs[i], &err), AnalyzerSession::Ingest::kError)
        << err;
  }
  observer::ckpt::Writer w;
  live.checkpoint(w);
  const std::vector<std::uint8_t> blob = w.take();

  const std::size_t at = retiredWordsOffset(blob);
  EXPECT_EQ(getU64(blob, at), 0u);      // written as 0
  EXPECT_EQ(getU64(blob, at + 8), 0u);
  std::vector<std::uint8_t> forged = blob;
  putU64(forged, at, std::uint64_t{1} << 40);
  putU64(forged, at + 8, 0);

  const auto finish = [&](const std::vector<std::uint8_t>& b) {
    observer::ckpt::Reader r(b);
    auto s = AnalyzerSession::restore(r);
    EXPECT_NE(s, nullptr);
    if (s == nullptr) return std::string();
    for (std::size_t i = half; i < msgs.size(); ++i) {
      EXPECT_NE(s->ingest(msgs[i], &err), AnalyzerSession::Ingest::kError)
          << err;
    }
    s->noteStreamEnd();
    EXPECT_TRUE(s->finished()) << s->streamError();
    return s->renderReport();
  };
  const std::string want = finish(blob);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(finish(forged), want);
}

}  // namespace
}  // namespace mpx::analysis
