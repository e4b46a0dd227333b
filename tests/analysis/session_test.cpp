// AnalyzerSession construction: the declared thread count is bounded by the
// widest clock the wire can carry, checked before anything is sized by it.
#include "analysis/session.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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

}  // namespace
}  // namespace mpx::analysis
