// The computation lattice: Fig. 5 and Fig. 6 structure, level-by-level
// memory discipline, run counting, monitor piggybacking.
#include "observer/lattice.hpp"

#include <gtest/gtest.h>

#include "../support/fixtures.hpp"
#include "observer/run_enumerator.hpp"

namespace mpx::observer {
namespace {

using mpx::testing::landingComputation;
using mpx::testing::observe;
using mpx::testing::xyzComputation;

LatticeOptions fullRetention() {
  LatticeOptions o;
  o.retention = Retention::kFull;
  return o;
}

TEST(Lattice, Figure5Structure) {
  const auto c = landingComputation();
  ComputationLattice lattice(c.graph, c.space, fullRetention());
  const LatticeStats& stats = lattice.build();

  // Paper: "there are only 6 states to analyze and three corresponding
  // runs".
  EXPECT_EQ(stats.totalNodes, 6u);
  EXPECT_EQ(stats.pathCount, 3u);
  EXPECT_EQ(stats.levels, 4u);  // levels 0..3

  const auto& levels = lattice.levels();
  ASSERT_EQ(levels.size(), 4u);
  // Level 0: <0,0,1>; the paper's Fig. 5 state set.
  EXPECT_EQ(levels[0][0].state.values, (std::vector<Value>{0, 0, 1}));
  ASSERT_EQ(levels[1].size(), 2u);
  EXPECT_EQ(levels[1][0].state.values, (std::vector<Value>{0, 0, 0}));
  EXPECT_EQ(levels[1][1].state.values, (std::vector<Value>{0, 1, 1}));
  ASSERT_EQ(levels[2].size(), 2u);
  EXPECT_EQ(levels[2][0].state.values, (std::vector<Value>{0, 1, 0}));
  EXPECT_EQ(levels[2][1].state.values, (std::vector<Value>{1, 1, 1}));
  ASSERT_EQ(levels[3].size(), 1u);
  EXPECT_EQ(levels[3][0].state.values, (std::vector<Value>{1, 1, 0}));
}

TEST(Lattice, Figure6Structure) {
  const auto c = xyzComputation();
  ComputationLattice lattice(c.graph, c.space, fullRetention());
  const LatticeStats& stats = lattice.build();

  // Fig. 6: 7 states (S00 S10 S11 S20 S21 S12 S22), 3 runs.
  EXPECT_EQ(stats.totalNodes, 7u);
  EXPECT_EQ(stats.pathCount, 3u);
  EXPECT_EQ(stats.levels, 5u);

  const auto& levels = lattice.levels();
  EXPECT_EQ(levels[0][0].state.values, (std::vector<Value>{-1, 0, 0}));
  EXPECT_EQ(levels[1][0].state.values, (std::vector<Value>{0, 0, 0}));
  // Level 2: S11 = (0,0,1) and S20 = (0,1,0).
  ASSERT_EQ(levels[2].size(), 2u);
  // Level 4: S22 = (1,1,1).
  EXPECT_EQ(levels[4][0].state.values, (std::vector<Value>{1, 1, 1}));
}

TEST(Lattice, PathCountsAccumulatePerNode) {
  const auto c = landingComputation();
  ComputationLattice lattice(c.graph, c.space, fullRetention());
  lattice.build();
  // Final node path count == total runs; level sums grow Pascal-style.
  const auto& levels = lattice.levels();
  EXPECT_EQ(levels.back()[0].pathCount, 3u);
}

TEST(Lattice, SlidingWindowKeepsAtMostTwoLevels) {
  // Claim C4 / paper §4.1: "at most two consecutive levels in the
  // computation lattice need to be stored at any moment".
  const auto c = [&] {
    program::GreedyScheduler sched;
    return observe(program::corpus::independentWriters(3, 3), sched,
                   {"v0", "v1", "v2"});
  }();
  ComputationLattice lattice(c.graph, c.space);  // sliding window default
  const LatticeStats& stats = lattice.build();

  // 3 threads x 3 writes: (9)! / (3!)^3 = 1680 runs over 10 levels.
  EXPECT_EQ(stats.pathCount, 1680u);
  EXPECT_EQ(stats.levels, 10u);
  // Peak live nodes is bounded by the two widest adjacent levels, far
  // below the total node count.
  EXPECT_LT(stats.peakLiveNodes, stats.totalNodes);
  std::size_t widest2 = 0;
  // width of level L of the 3x3 multinomial lattice: number of
  // compositions (k0,k1,k2) with ki <= 3 summing to L.
  const auto width = [](std::size_t L) {
    std::size_t w = 0;
    for (std::size_t a = 0; a <= 3; ++a) {
      for (std::size_t b = 0; b <= 3; ++b) {
        for (std::size_t cc = 0; cc <= 3; ++cc) {
          if (a + b + cc == L) ++w;
        }
      }
    }
    return w;
  };
  for (std::size_t L = 0; L + 1 <= 9; ++L) {
    widest2 = std::max(widest2, width(L) + width(L + 1));
  }
  EXPECT_LE(stats.peakLiveNodes, widest2);
}

TEST(Lattice, FullyOrderedEventsGiveAPathLattice) {
  program::GreedyScheduler sched;
  const auto c = observe(program::corpus::serializedWriters(2, 2), sched,
                         {"total"});
  ComputationLattice lattice(c.graph, c.space, fullRetention());
  const LatticeStats& stats = lattice.build();
  EXPECT_EQ(stats.pathCount, 1u);  // lock order serializes everything
  EXPECT_EQ(stats.peakLevelWidth, 1u);
  EXPECT_EQ(stats.totalNodes, stats.levels);
}

TEST(Lattice, UnfinalizedGraphRejected) {
  CausalityGraph g;
  EXPECT_THROW(ComputationLattice(g, StateSpace{}), std::logic_error);
}

TEST(Lattice, LevelsRequireFullRetention) {
  const auto c = landingComputation();
  ComputationLattice lattice(c.graph, c.space);
  lattice.build();
  EXPECT_THROW((void)lattice.levels(), std::logic_error);
}

TEST(Lattice, TruncationOnLevelWidthCap) {
  program::GreedyScheduler sched;
  const auto c = observe(program::corpus::independentWriters(4, 3), sched,
                         {"v0", "v1", "v2", "v3"});
  LatticeOptions opts = fullRetention();
  opts.maxNodesPerLevel = 5;
  ComputationLattice lattice(c.graph, c.space, opts);
  const LatticeStats& stats = lattice.build();
  EXPECT_TRUE(stats.truncated);
  EXPECT_TRUE(stats.bounded());
  // Level widths are 1, 4, 10, ...: level 2 trips the cap.  It is counted
  // (levels 0..2, 1 + 4 + 10 nodes) but not retained, and the run stops.
  EXPECT_EQ(stats.levels, 3u);
  EXPECT_EQ(stats.totalNodes, 15u);
  EXPECT_EQ(stats.peakLevelWidth, 10u);
  EXPECT_EQ(stats.pathCount, 0u);
  EXPECT_EQ(lattice.levels().size(), 2u);
}

TEST(Lattice, RenderShowsPaperStyleLabels) {
  const auto c = landingComputation();
  ComputationLattice lattice(c.graph, c.space, fullRetention());
  lattice.build();
  const std::string out = lattice.render();
  EXPECT_NE(out.find("S00<0,0,1>"), std::string::npos);
  EXPECT_NE(out.find("S21<1,1,0>"), std::string::npos);
  const std::string dot = lattice.renderDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"S00\" -> "), std::string::npos);
}

// --- Monitor piggybacking --------------------------------------------

/// Toy monitor: state counts how many distinct states with x != 0 were on
/// some path (capped); violating when the current x value is negative.
class CountingMonitor final : public LatticeMonitor {
 public:
  MonitorState initial(const GlobalState& s) override {
    return s.values[0] < 0 ? kBad : (s.values[0] != 0 ? 1 : 0);
  }
  MonitorState advance(MonitorState prev, const GlobalState& s) override {
    if (prev == kBad || s.values[0] < 0) return kBad;
    return prev + (s.values[0] != 0 ? 1 : 0);
  }
  [[nodiscard]] bool isViolating(MonitorState m) const override {
    return m == kBad;
  }
  static constexpr MonitorState kBad = ~0ull;
};

TEST(Lattice, MonitorStatesMergeAtNodes) {
  // Two threads write x to different values; different paths accumulate
  // different counts, merged as a set at the join node.
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  const VarId y = b.var("y", 0);
  auto t1 = b.thread();
  t1.write(x, program::lit(1));
  auto t2 = b.thread();
  t2.write(y, program::lit(2));
  program::GreedyScheduler sched;
  const auto c = observe(b.build(), sched, {"x", "y"});

  LatticeOptions opts = fullRetention();
  ComputationLattice lattice(c.graph, c.space, opts);
  CountingMonitor mon;
  std::vector<Violation> violations;
  lattice.check(mon, violations);
  EXPECT_TRUE(violations.empty());
  // The final node is reached by 2 paths with different counts -> the
  // monitor-state set has 2 entries.
  const auto& final = lattice.levels().back();
  ASSERT_EQ(final.size(), 1u);
  EXPECT_EQ(final[0].monitorStates.size(), 2u);
  EXPECT_EQ(lattice.stats().monitorStatesPeak, 2u);
}

TEST(Lattice, InitialStateViolationIsReported) {
  program::ProgramBuilder b;
  b.var("x", -5);  // bad from the start
  auto t = b.thread();
  t.internalOp();
  program::GreedyScheduler sched;
  const auto c = observe(b.build(), sched, {"x"});
  ComputationLattice lattice(c.graph, c.space);
  CountingMonitor mon;
  std::vector<Violation> violations;
  lattice.check(mon, violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(violations[0].path.empty());
  EXPECT_EQ(violations[0].state.values[0], -5);
}

TEST(Lattice, ViolationCapRespected) {
  program::GreedyScheduler sched;
  // x written to -1 by one thread: every path eventually violates.
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  const VarId y = b.var("y", 0);
  auto t1 = b.thread();
  t1.write(x, program::lit(-1));
  auto t2 = b.thread();
  t2.write(y, program::lit(1)).write(y, program::lit(2));
  const auto c = observe(b.build(), sched, {"x", "y"});

  LatticeOptions opts;
  opts.maxViolations = 1;
  ComputationLattice lattice(c.graph, c.space, opts);
  CountingMonitor mon;
  std::vector<Violation> violations;
  lattice.check(mon, violations);
  EXPECT_EQ(violations.size(), 1u);
}

TEST(Lattice, CounterexamplePathsAreConsistentRuns) {
  program::GreedyScheduler sched;
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  const VarId y = b.var("y", 0);
  auto t1 = b.thread();
  t1.write(x, program::lit(-1));
  auto t2 = b.thread();
  t2.write(y, program::lit(1));
  const auto c = observe(b.build(), sched, {"x", "y"});

  ComputationLattice lattice(c.graph, c.space);
  CountingMonitor mon;
  std::vector<Violation> violations;
  lattice.check(mon, violations);
  ASSERT_FALSE(violations.empty());
  RunEnumerator runs(c.graph, c.space);
  for (const auto& v : violations) {
    EXPECT_TRUE(runs.isConsistentRun(v.path));
    // Replaying the path reaches the reported state.
    const auto states = runs.statesAlong(v.path);
    EXPECT_EQ(states.back(), v.state);
  }
}

TEST(Cut, LevelAndAdvance) {
  Cut c(3);
  EXPECT_EQ(c.level(), 0u);
  const Cut d = c.advanced(1);
  EXPECT_EQ(d.level(), 1u);
  EXPECT_EQ(d.k[1], 1u);
  EXPECT_EQ(d.toString(), "S010");
  EXPECT_NE(c.hash(), d.hash());
}

TEST(Lattice, LongWitnessChainReleasesIteratively) {
  // A witness path has one node per level, so a long stream builds a long
  // chain.  Released with one nested destructor call per node, a chain of
  // 10^6 nodes overflows a default 8 MiB stack.
  constexpr std::size_t kLevels = 1000000;
  PathPtr path;
  for (std::size_t i = 1; i <= kLevels; ++i) {
    path = std::make_shared<const PathNode>(
        EventRef{static_cast<ThreadId>(i % 2), i}, path);
  }
  const PathPtr shared = path->parent;  // a suffix another path still uses
  EXPECT_EQ(unwindPath(path).size(), kLevels);
  path.reset();
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(unwindPath(shared).size(), kLevels - 1);
}

}  // namespace
}  // namespace mpx::observer
