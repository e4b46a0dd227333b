// The independent level-set oracle (tests/support/level_oracle.hpp) against
// the brute-force oracle on the differential sweep's seeds, and against
// AnalyzerSession on mid-sized streams the brute-force oracle cannot
// reach: fifo and shuffled arrival, each torn down and restored from a
// checkpoint at a seeded midpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "../support/level_oracle.hpp"
#include "../support/trace_gen.hpp"
#include "analysis/engine.hpp"
#include "analysis/session.hpp"
#include "logic/parser.hpp"

namespace mpx::analysis {
namespace {

using mpx::testing::LevelSetOracle;

/// The level-set oracle must reproduce every figure of the brute-force
/// oracle on each feasible seed of the 500-seed sweep.
TEST(LevelOracle, AgreesWithBruteForceOracle) {
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; accepted < 500 && seed < 20000; ++seed) {
    const auto c = mpx::testing::generateCase(seed);
    EngineConfig ec;
    ec.specs = {c.spec};
    const EngineResult base = Engine(c.program, ec).runWithSeed(c.scheduleSeed);
    const logic::Formula f = logic::SpecParser(base.space).parse(c.spec);
    const mpx::testing::BruteForceOracle brute(base.causality, base.space, f);
    if (!brute.result().feasible) continue;
    ++accepted;

    std::vector<trace::Message> msgs;
    for (const auto& ref : base.causality.observedOrder()) {
      msgs.push_back(base.causality.message(ref));
    }
    const LevelSetOracle level(msgs, base.causality.threadCount(),
                               base.space.varIds(),
                               base.space.initialValues(), f);
    const auto& want = brute.result();
    const auto& got = level.result();
    ASSERT_EQ(got.error, "") << "seed " << seed;
    std::set<std::string> names;
    for (const auto& k : got.violatingCuts) {
      names.insert(mpx::testing::oracleCutName(k));
    }
    ASSERT_EQ(names, want.violatingCuts) << "seed " << seed;
    ASSERT_EQ(got.levelWidths, want.levelWidths) << "seed " << seed;
    ASSERT_EQ(got.totalNodes, want.consistentCuts) << "seed " << seed;
    ASSERT_EQ(got.pathCount, want.runCount) << "seed " << seed;
  }
  ASSERT_GE(accepted, 500u);
}

struct SessionRun {
  std::string report;
  std::set<std::vector<LocalSeq>> violatingCuts;
  observer::LatticeStats stats;
};

/// Feeds `msgs` to a fresh session, replacing it by a checkpoint/restore
/// round trip after message `midpoint`, and checks every reported witness
/// against the oracle.
SessionRun runSession(const mpx::testing::StreamCase& c,
                      const std::vector<trace::Message>& msgs,
                      std::size_t midpoint, const LevelSetOracle& oracle,
                      std::size_t maxFrontier = 0) {
  AnalyzerSession::Config cfg;
  cfg.threads = static_cast<std::uint32_t>(c.threads);
  cfg.specs = {c.spec};
  cfg.handshakeSpecs = cfg.specs;
  cfg.tracked = c.tracked;
  cfg.vars = c.vars;
  cfg.lattice.maxViolations = std::size_t{1} << 20;
  cfg.lattice.maxFrontier = maxFrontier;

  SessionRun out;
  auto live = std::make_unique<AnalyzerSession>(cfg);
  const char* err = nullptr;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_NE(live->ingest(msgs[i], &err), AnalyzerSession::Ingest::kError)
        << err;
    if (i == midpoint) {
      observer::ckpt::Writer w;
      live->checkpoint(w);
      const std::vector<std::uint8_t> blob = w.take();
      observer::ckpt::Reader r(blob);
      auto restored = AnalyzerSession::restore(r);
      if (restored == nullptr) {
        ADD_FAILURE() << "restore failed after message " << i;
        return out;
      }
      live = std::move(restored);
    }
  }
  live->noteStreamEnd();
  EXPECT_TRUE(live->finished()) << live->streamError();
  out.report = live->renderReport();
  out.stats = live->stats();
  for (const observer::Violation& v : live->violations()) {
    const std::vector<LocalSeq> cut(v.cut.k.begin(), v.cut.k.end());
    out.violatingCuts.insert(cut);
    std::vector<std::pair<ThreadId, LocalSeq>> path;
    for (const observer::EventRef& e : v.path) path.emplace_back(e.thread, e.index);
    EXPECT_EQ(oracle.replayWitness(path, cut, v.state.values), "")
        << "witness of " << v.cut.toString();
  }
  return out;
}

/// 200 seeds of 2..4 threads and 20..150 relevant events: the session's
/// violating cuts, level count, node census, peak width and run count
/// equal the oracle's under fifo and under shuffled arrival (gaps
/// included), each with a checkpoint/restore at a seeded midpoint, and the
/// two reports are byte-identical.  A third run caps the frontier at two
/// cuts: its violations stay a subset of the oracle's and include every
/// violation of the observed execution, whose cut is never shed.
TEST(LevelOracle, SessionSweepWithMidpointRestore) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const mpx::testing::StreamCase c = mpx::testing::generateStreamCase(seed);
    const observer::StateSpace space =
        observer::StateSpace::byNames(c.vars, c.tracked);
    const logic::Formula f = logic::SpecParser(space).parse(c.spec);
    const LevelSetOracle oracle(c.msgs, c.threads, space.varIds(),
                                space.initialValues(), f);
    const auto& want = oracle.result();
    ASSERT_EQ(want.error, "") << "seed " << seed;

    std::mt19937_64 rng(seed ^ 0xc0ffee);
    std::vector<trace::Message> shuffled = c.msgs;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    std::string fifoReport;
    const std::vector<trace::Message>* const deliveries[] = {&c.msgs,
                                                             &shuffled};
    for (const std::vector<trace::Message>* msgs : deliveries) {
      const std::size_t midpoint = rng() % msgs->size();
      const SessionRun got = runSession(c, *msgs, midpoint, oracle);
      const char* how = msgs == &c.msgs ? " fifo" : " shuffled";
      ASSERT_EQ(got.violatingCuts, want.violatingCuts) << "seed " << seed << how;
      ASSERT_EQ(got.stats.levels, want.levelWidths.size()) << "seed " << seed;
      ASSERT_EQ(got.stats.totalNodes, want.totalNodes) << "seed " << seed << how;
      ASSERT_EQ(got.stats.peakLevelWidth, want.peakLevelWidth())
          << "seed " << seed << how;
      ASSERT_EQ(got.stats.pathCountSaturated, want.pathCountSaturated)
          << "seed " << seed << how;
      ASSERT_EQ(got.stats.pathCount, want.pathCount) << "seed " << seed << how;
      ASSERT_FALSE(got.stats.bounded()) << "seed " << seed << how;
      if (msgs == &c.msgs) {
        fifoReport = got.report;
      } else {
        ASSERT_EQ(got.report, fifoReport) << "seed " << seed;
      }
    }

    const SessionRun capped =
        runSession(c, shuffled, rng() % shuffled.size(), oracle, 2);
    ASSERT_TRUE(std::includes(want.violatingCuts.begin(),
                              want.violatingCuts.end(),
                              capped.violatingCuts.begin(),
                              capped.violatingCuts.end()))
        << "seed " << seed;
    const auto observed = oracle.observedViolatingCuts();
    ASSERT_TRUE(std::includes(capped.violatingCuts.begin(),
                              capped.violatingCuts.end(), observed.begin(),
                              observed.end()))
        << "seed " << seed;
    ASSERT_EQ(capped.stats.bounded(), capped.stats.droppedNodes > 0)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace mpx::analysis
