// The pluggable analysis interface: node dispatch coverage, fork/merge
// determinism under parallel expansion, violation filtering through the
// owning plugins, and MonitorBus component packing.
#include "observer/analysis.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "../support/fixtures.hpp"
#include "observer/lattice.hpp"
#include "observer/observer_metrics.hpp"
#include "observer/online.hpp"

namespace mpx::observer {
namespace {

using mpx::testing::ObservedComputation;
using mpx::testing::observe;
using mpx::testing::xyzComputation;

/// Counts nodes and records their dispatch order.  merge() appends the
/// fork's order — dispatched chunks arrive in chunk-index order, so the
/// merged order must equal the serial order.
class NodeCensus final : public Analysis {
 public:
  [[nodiscard]] std::string name() const override { return "census"; }
  [[nodiscard]] std::string kind() const override { return "census"; }
  [[nodiscard]] bool wantsNodes() const override { return true; }

  void onNode(const NodeView& node) override {
    ++count_;
    order_.push_back(node.cut->toString());
    states_.emplace_back(node.cut->k, *node.state);
    msetPtrs_.insert(node.monitorStates);
  }

  [[nodiscard]] std::unique_ptr<Analysis> fork() override {
    return std::make_unique<NodeCensus>();
  }

  void merge(Analysis& fork) override {
    auto& f = static_cast<NodeCensus&>(fork);
    count_ += f.count_;
    order_.insert(order_.end(), f.order_.begin(), f.order_.end());
    states_.insert(states_.end(), f.states_.begin(), f.states_.end());
    msetPtrs_.insert(f.msetPtrs_.begin(), f.msetPtrs_.end());
  }

  [[nodiscard]] AnalysisReport report() const override {
    AnalysisReport r;
    r.name = name();
    r.kind = kind();
    r.text = "nodes: " + std::to_string(count_) + "\n";
    return r;
  }

  std::size_t count_ = 0;
  std::vector<std::string> order_;
  std::vector<std::pair<std::vector<std::uint32_t>, GlobalState>> states_;
  std::set<const std::vector<MonitorState>*> msetPtrs_;
};

/// 1-bit monitor: violating whenever the watched slot equals `bad`.
class SlotMonitor final : public LatticeMonitor {
 public:
  SlotMonitor(std::size_t slot, Value bad) : slot_(slot), bad_(bad) {}
  MonitorState initial(const GlobalState& s) override {
    return s.values[slot_] == bad_ ? 1u : 0u;
  }
  MonitorState advance(MonitorState, const GlobalState& s) override {
    return s.values[slot_] == bad_ ? 1u : 0u;
  }
  [[nodiscard]] bool isViolating(MonitorState m) const override {
    return m == 1u;
  }
  [[nodiscard]] bool canEverViolate(MonitorState) const override {
    return true;
  }
  [[nodiscard]] unsigned stateBits() const override { return 1; }

 private:
  std::size_t slot_;
  Value bad_;
};

/// Rides the monitor word with a SlotMonitor and either accepts or rejects
/// every violating token.
class SlotChecker final : public Analysis {
 public:
  SlotChecker(std::size_t slot, Value bad, bool accept)
      : mon_(slot, bad), accept_(accept) {}

  [[nodiscard]] std::string name() const override { return "slot-checker"; }
  [[nodiscard]] std::string kind() const override { return "slot"; }
  [[nodiscard]] LatticeMonitor* monitor() override { return &mon_; }

  bool onViolation(const Violation& v, MonitorState componentState) override {
    offered_.push_back(componentState);
    cuts_.push_back(v.cut.toString());
    return accept_;
  }

  [[nodiscard]] AnalysisReport report() const override {
    AnalysisReport r;
    r.name = name();
    r.kind = kind();
    r.violationCount = accept_ ? offered_.size() : 0;
    return r;
  }

  SlotMonitor mon_;
  bool accept_;
  std::vector<MonitorState> offered_;
  std::vector<std::string> cuts_;
};

/// Three threads, two writes each to private variables: a 27-cut lattice,
/// wide enough to exercise chunked parallel node dispatch.
ObservedComputation wideComputation() {
  program::ProgramBuilder b;
  const VarId a = b.var("a", 0);
  const VarId c = b.var("c", 0);
  const VarId d = b.var("d", 0);
  for (const VarId v : {a, c, d}) {
    auto t = b.thread();
    t.write(v, program::lit(1)).write(v, program::lit(2));
  }
  program::GreedyScheduler sched;
  return observe(b.build(), sched, {"a", "c", "d"});
}

LatticeOptions withJobs(std::size_t jobs) {
  LatticeOptions opts;
  opts.parallel.jobs = jobs;
  opts.parallel.minFrontier = 1;  // chunk even narrow levels
  return opts;
}

TEST(AnalysisPlugin, NodeDispatchCoversEveryNodeOnce) {
  const auto c = xyzComputation();
  NodeCensus census;
  AnalysisBus bus({&census});
  ComputationLattice lattice(c.graph, c.space, LatticeOptions{});
  std::vector<Violation> violations;
  const LatticeStats stats = lattice.analyze(bus, violations);

  EXPECT_EQ(census.count_, stats.totalNodes);
  // Each NodeView shows its cut's own valuation.
  ASSERT_EQ(census.states_.size(), census.count_);
  for (const auto& [k, state] : census.states_) {
    EXPECT_EQ(state, mpx::testing::foldedState(c.graph, c.space, k));
  }
  // No monitor on the bus: every node carries the interned empty set.
  EXPECT_EQ(census.msetPtrs_.size(), 1u);
}

TEST(AnalysisPlugin, ForkMergeOrderMatchesSerialAcrossJobs) {
  const auto c = wideComputation();

  std::vector<std::string> serialOrder;
  {
    NodeCensus census;
    AnalysisBus bus({&census});
    ComputationLattice lattice(c.graph, c.space, withJobs(1));
    std::vector<Violation> violations;
    lattice.analyze(bus, violations);
    serialOrder = census.order_;
    EXPECT_EQ(census.count_, 27u);  // (2+1)^3 cuts
  }
  for (const std::size_t jobs : {2u, 4u}) {
    NodeCensus census;
    AnalysisBus bus({&census});
    ComputationLattice lattice(c.graph, c.space, withJobs(jobs));
    std::vector<Violation> violations;
    lattice.analyze(bus, violations);
    EXPECT_EQ(census.order_, serialOrder) << "jobs=" << jobs;
  }
}

TEST(AnalysisPlugin, RejectedViolationsAreNotRecorded) {
  const auto c = xyzComputation();
  // Slot of "x" in the space; x reaches 1 only at the lattice's end.
  const std::size_t slot = *c.space.slotOf(c.prog.vars.id("x"));

  for (const bool accept : {false, true}) {
    SlotChecker checker(slot, 1, accept);
    AnalysisBus bus({&checker});
    ComputationLattice lattice(c.graph, c.space, LatticeOptions{});
    std::vector<Violation> violations;
    lattice.analyze(bus, violations);

    EXPECT_FALSE(checker.offered_.empty());
    for (const MonitorState m : checker.offered_) EXPECT_EQ(m, 1u);
    if (accept) {
      EXPECT_EQ(violations.size(), checker.offered_.size());
    } else {
      EXPECT_TRUE(violations.empty());
    }
  }
}

TEST(AnalysisPlugin, RejectedLevelZeroViolationIsNeitherRecordedNorCounted) {
  // x starts at -1 on the xyz computation: the property is violated by the
  // initial state, and the plugin rejects it.
  const auto c = xyzComputation();
  const std::size_t slot = *c.space.slotOf(c.prog.vars.id("x"));
  SlotChecker checker(slot, -1, false);
  AnalysisBus bus({&checker});
  const std::uint64_t counted = ObserverMetrics::get().violations.value();

  OnlineAnalyzer online(c.space, c.prog.threadCount(), bus);
  ASSERT_EQ(checker.cuts_, std::vector<std::string>{"S00"});
  EXPECT_TRUE(online.violations().empty());
  EXPECT_EQ(ObserverMetrics::get().violations.value(), counted);
}

TEST(AnalysisPlugin, MonitorBusPacksComponentsSideBySide) {
  const auto c = xyzComputation();
  const std::size_t xSlot = *c.space.slotOf(c.prog.vars.id("x"));
  const std::size_t ySlot = *c.space.slotOf(c.prog.vars.id("y"));

  SlotChecker xChecker(xSlot, 1, true);
  SlotChecker yChecker(ySlot, 1, true);
  AnalysisBus bus({&xChecker, &yChecker});
  ASSERT_EQ(bus.monitorBus().components().size(), 2u);
  EXPECT_EQ(bus.monitorBus().stateBits(), 2u);

  ComputationLattice lattice(c.graph, c.space, LatticeOptions{});
  std::vector<Violation> violations;
  lattice.analyze(bus, violations);

  // Each plugin is offered only ITS component's violating slice.
  EXPECT_FALSE(xChecker.offered_.empty());
  EXPECT_FALSE(yChecker.offered_.empty());
  for (const MonitorState m : xChecker.offered_) EXPECT_EQ(m, 1u);
  for (const MonitorState m : yChecker.offered_) EXPECT_EQ(m, 1u);
  // y reaches 1 earlier than x on this computation, so the y component
  // fires at cuts where the x component does not.
  EXPECT_NE(xChecker.cuts_, yChecker.cuts_);
}

TEST(AnalysisPlugin, ReportsComeBackInPluginOrder) {
  const auto c = xyzComputation();
  NodeCensus census;
  SlotChecker checker(0, 99, true);  // never fires
  AnalysisBus bus({&census, &checker});
  ComputationLattice lattice(c.graph, c.space, LatticeOptions{});
  std::vector<Violation> violations;
  lattice.analyze(bus, violations);
  bus.finish(lattice.stats());

  const auto reports = bus.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].kind, "census");
  EXPECT_EQ(reports[1].kind, "slot");
}

}  // namespace
}  // namespace mpx::observer
