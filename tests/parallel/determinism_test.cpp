// The level_expand.hpp determinism contract, asserted end-to-end: for every
// corpus computation, parallel expansion (jobs=4) and serial expansion
// produce identical violation sets, identical LatticeStats, and identical
// retained levels (cuts, states, path counts, monitor-state sets — a
// stronger check than per-level hashes).  Violation ORDER may differ, so
// sets are compared canonically sorted.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "logic/monitor.hpp"
#include "logic/parser.hpp"
#include "observer/lattice.hpp"
#include "observer/online.hpp"
#include "program/corpus.hpp"

namespace mpx::observer {
namespace {

using mpx::testing::ObservedComputation;
using mpx::testing::observe;

/// Canonical key of a violation, independent of discovery order and of
/// which equivalent witness path it carries.
std::string violationKey(const Violation& v) {
  std::ostringstream os;
  os << v.cut.toString() << '|' << v.state.toString() << '|' << v.monitorState;
  return os.str();
}

std::vector<std::string> sortedKeys(const std::vector<Violation>& vs) {
  std::vector<std::string> keys;
  keys.reserve(vs.size());
  for (const auto& v : vs) keys.push_back(violationKey(v));
  std::sort(keys.begin(), keys.end());
  return keys;
}

void expectSameStats(const LatticeStats& a, const LatticeStats& b) {
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.totalNodes, b.totalNodes);
  EXPECT_EQ(a.totalEdges, b.totalEdges);
  EXPECT_EQ(a.peakLevelWidth, b.peakLevelWidth);
  EXPECT_EQ(a.peakLiveNodes, b.peakLiveNodes);
  EXPECT_EQ(a.gcNodes, b.gcNodes);
  EXPECT_EQ(a.pathCount, b.pathCount);
  EXPECT_EQ(a.pathCountSaturated, b.pathCountSaturated);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.monitorStatesPeak, b.monitorStatesPeak);
  EXPECT_EQ(a.prunedMonitorStates, b.prunedMonitorStates);
  EXPECT_EQ(a.approximated, b.approximated);
}

/// Retained levels are sorted by cut, so direct comparison is exact.
void expectSameLevels(const std::vector<std::vector<LevelNode>>& a,
                      const std::vector<std::vector<LevelNode>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t L = 0; L < a.size(); ++L) {
    ASSERT_EQ(a[L].size(), b[L].size()) << "level " << L;
    for (std::size_t i = 0; i < a[L].size(); ++i) {
      EXPECT_EQ(a[L][i].cut, b[L][i].cut) << "level " << L;
      EXPECT_EQ(a[L][i].state.values, b[L][i].state.values) << "level " << L;
      EXPECT_EQ(a[L][i].pathCount, b[L][i].pathCount) << "level " << L;
      EXPECT_EQ(a[L][i].monitorStates, b[L][i].monitorStates)
          << "level " << L;
    }
  }
}

LatticeOptions optsFor(std::size_t jobs) {
  LatticeOptions opts;
  opts.retention = Retention::kFull;  // retain everything for comparison
  opts.maxViolations = 1u << 20;      // the cap must not bind: with
                                      // different discovery orders, a
                                      // binding cap could keep different
                                      // subsets of the same violation set
  opts.parallel.jobs = jobs;
  opts.parallel.minFrontier = 1;      // parallelize even tiny levels
  return opts;
}

/// A corpus case: a computation plus (optionally) a property to monitor.
struct Case {
  std::string name;
  ObservedComputation comp;
  std::string spec;  ///< empty = structure-only build()
};

std::vector<Case> corpusCases() {
  std::vector<Case> cases;
  cases.push_back({"landing", mpx::testing::landingComputation(),
                   program::corpus::landingProperty()});
  cases.push_back({"xyz", mpx::testing::xyzComputation(),
                   program::corpus::xyzProperty()});
  {
    // Wide lattice, no monitor: structure + path-count determinism.
    program::GreedyScheduler sched;
    cases.push_back({"independentWriters3x3-structure",
                     observe(program::corpus::independentWriters(3, 3), sched,
                             {"v0", "v1", "v2"}),
                     ""});
  }
  {
    // Wide lattice WITH a monitor whose violations appear mid-lattice on
    // many cuts: stresses the deferred merge-time violation emission.
    program::GreedyScheduler sched;
    cases.push_back({"independentWriters3x3-monitored",
                     observe(program::corpus::independentWriters(3, 3), sched,
                             {"v0", "v1", "v2"}),
                     "!(v0 = 2 && v1 = 2)"});
  }
  {
    program::GreedyScheduler sched;
    cases.push_back({"readersWriter",
                     observe(program::corpus::readersWriter(2), sched,
                             {"readers", "writing"}),
                     program::corpus::readersWriterProperty()});
  }
  return cases;
}

struct BatchResult {
  LatticeStats stats;
  std::vector<Violation> violations;
  std::vector<std::vector<LevelNode>> levels;
};

BatchResult runBatch(const Case& c, std::size_t jobs) {
  BatchResult out;
  ComputationLattice lattice(c.comp.graph, c.comp.space, optsFor(jobs));
  if (c.spec.empty()) {
    out.stats = lattice.build();
  } else {
    logic::SynthesizedMonitor mon(
        logic::SpecParser(c.comp.space).parse(c.spec));
    out.stats = lattice.check(mon, out.violations);
  }
  out.levels = lattice.levels();
  return out;
}

TEST(ParallelDeterminism, BatchLatticeMatchesSerialAcrossCorpus) {
  for (const Case& c : corpusCases()) {
    SCOPED_TRACE(c.name);
    const BatchResult serial = runBatch(c, 1);
    for (const std::size_t jobs : {2u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      const BatchResult par = runBatch(c, jobs);
      expectSameStats(serial.stats, par.stats);
      EXPECT_EQ(sortedKeys(serial.violations), sortedKeys(par.violations));
      expectSameLevels(serial.levels, par.levels);
    }
  }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable) {
  // Same jobs count twice: not just set-equal but fully reproducible.
  const auto cases = corpusCases();
  const Case& c = cases[3];  // the monitored wide lattice
  const BatchResult a = runBatch(c, 4);
  const BatchResult b = runBatch(c, 4);
  expectSameStats(a.stats, b.stats);
  EXPECT_EQ(sortedKeys(a.violations), sortedKeys(b.violations));
  expectSameLevels(a.levels, b.levels);
}

TEST(ParallelDeterminism, OnlineAnalyzerMatchesSerialOnline) {
  for (const Case& c : corpusCases()) {
    if (c.spec.empty()) continue;
    SCOPED_TRACE(c.name);

    const auto runOnline = [&c](std::size_t jobs) {
      logic::SynthesizedMonitor mon(
          logic::SpecParser(c.comp.space).parse(c.spec));
      OnlineAnalyzer online(c.comp.space, c.comp.prog.threadCount(), &mon,
                            optsFor(jobs));
      for (const auto& ref : c.comp.graph.observedOrder()) {
        online.onMessage(c.comp.graph.message(ref));
      }
      online.endOfTrace();
      EXPECT_TRUE(online.finished());
      return std::pair{online.stats(), online.violations()};
    };

    const auto [serialStats, serialViolations] = runOnline(1);
    const auto [parStats, parViolations] = runOnline(4);
    expectSameStats(serialStats, parStats);
    EXPECT_EQ(sortedKeys(serialViolations), sortedKeys(parViolations));
  }
}

TEST(ParallelDeterminism, ParallelMatchesBatchAcrossDeliveryOrders) {
  // Shuffled arrival + parallel expansion together: the two sources of
  // nondeterminism must still cancel out.
  const auto c = mpx::testing::xyzComputation();
  std::vector<trace::Message> msgs;
  for (const auto& ref : c.graph.observedOrder()) {
    msgs.push_back(c.graph.message(ref));
  }

  const BatchResult batch = runBatch(
      Case{"xyz", c, program::corpus::xyzProperty()}, 1);

  std::mt19937_64 rng(11);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(msgs.begin(), msgs.end(), rng);
    logic::SynthesizedMonitor mon(
        logic::SpecParser(c.space).parse(program::corpus::xyzProperty()));
    OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon, optsFor(4));
    for (const auto& m : msgs) online.onMessage(m);
    online.endOfTrace();
    ASSERT_TRUE(online.finished()) << "round " << round;
    EXPECT_EQ(online.stats().totalNodes, batch.stats.totalNodes);
    EXPECT_EQ(sortedKeys(online.violations()), sortedKeys(batch.violations))
        << "round " << round;
  }
}

}  // namespace
}  // namespace mpx::observer
