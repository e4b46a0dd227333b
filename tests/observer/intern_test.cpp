// The monitor-set arena (intern.hpp) and the lattice's edge tallies
// (LatticeStats::internHits/internMisses): every edge either builds a cut
// or reaches one already built, and the counts are a pure function of the
// lattice.
#include "observer/intern.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/fixtures.hpp"
#include "observer/lattice.hpp"

namespace mpx::observer {
namespace {

using mpx::testing::landingComputation;
using mpx::testing::xyzComputation;

TEST(MonitorSetArena, DedupesEqualSortedSets) {
  MonitorSetArena arena;
  const auto* a = arena.intern({1, 2, 3});
  const auto* b = arena.intern({1, 2, 3});
  const auto* c = arena.intern({1, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  const InternStats s = arena.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.size, 2u);
}

TEST(MonitorSetArena, EmptySetIsACanonicalValueToo) {
  MonitorSetArena arena;
  const auto* a = arena.intern({});
  const auto* b = arena.intern({});
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a->empty());
}

// --- lattice integration ------------------------------------------------

TEST(LatticeIntern, MissesEqualCutsBuilt) {
  // Without shedding every cut but the initial one is built exactly once,
  // and the remaining edges reached a cut already built.
  const auto c = xyzComputation();
  ComputationLattice lattice(c.graph, c.space, LatticeOptions{});
  const LatticeStats& stats = lattice.build();
  EXPECT_EQ(stats.internMisses, stats.totalNodes - 1);
  EXPECT_EQ(stats.internHits + stats.internMisses, stats.totalEdges);
}

TEST(LatticeIntern, EveryCorpusComputationShowsNonzeroHitRate) {
  // Both paper examples have concurrent events, so some cut is reached
  // along more than one edge.
  for (const auto& comp : {landingComputation(), xyzComputation()}) {
    ComputationLattice lattice(comp.graph, comp.space, LatticeOptions{});
    const LatticeStats& stats = lattice.build();
    EXPECT_GT(stats.internHits, 0u);
    EXPECT_GT(stats.internMisses, 0u);
    EXPECT_LT(stats.internMisses, stats.totalEdges);
  }
}

TEST(LatticeIntern, JoinsCountAsHits) {
  // Two threads writing private flags twice each: a 3x3 grid of 9 cuts
  // and 12 edges.  8 cuts are built; the 4 cuts with two predecessors are
  // each reached once more.
  program::ProgramBuilder b;
  const VarId p = b.var("p", 0);
  const VarId q = b.var("q", 0);
  for (const VarId v : {p, q}) {
    auto t = b.thread();
    t.write(v, program::lit(1)).write(v, program::lit(0));
  }
  program::GreedyScheduler sched;
  const auto c = mpx::testing::observe(b.build(), sched, {"p", "q"});

  ComputationLattice lattice(c.graph, c.space, LatticeOptions{});
  const LatticeStats& stats = lattice.build();
  EXPECT_EQ(stats.totalNodes, 9u);
  EXPECT_EQ(stats.totalEdges, 12u);
  EXPECT_EQ(stats.internMisses, 8u);
  EXPECT_EQ(stats.internHits, 4u);
}

}  // namespace
}  // namespace mpx::observer
