// The pluggable analysis interface: node dispatch coverage and order,
// violation filtering through the owning plugins, and MonitorBus
// component packing.
#include "observer/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
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

/// Counts nodes and records their dispatch order.
class NodeCensus final : public Analysis {
 public:
  [[nodiscard]] std::string name() const override { return "census"; }
  [[nodiscard]] std::string kind() const override { return "census"; }
  [[nodiscard]] bool wantsNodes() const override { return true; }

  void onNode(const NodeView& node) override {
    ++count_;
    order_.emplace_back(node.level, node.cut->k);
    states_.emplace_back(node.cut->k, *node.state);
    msetPtrs_.insert(node.monitorStates);
  }

  [[nodiscard]] AnalysisReport report() const override {
    AnalysisReport r;
    r.name = name();
    r.kind = kind();
    r.text = "nodes: " + std::to_string(count_) + "\n";
    return r;
  }

  std::size_t count_ = 0;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>> order_;
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

/// Three threads, two writes each to private variables: a 27-cut lattice
/// whose middle levels hold up to 7 cuts.
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

TEST(AnalysisPlugin, NodeDispatchIsSortedByCutWithinEachLevel) {
  // Plugins see the levels in order and each level's nodes sorted by cut:
  // the order a checkpoint/restore round trip reproduces.
  const auto c = wideComputation();
  NodeCensus census;
  AnalysisBus bus({&census});
  ComputationLattice lattice(c.graph, c.space, LatticeOptions{});
  std::vector<Violation> violations;
  lattice.analyze(bus, violations);

  std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>> want;
  for (std::uint32_t a = 0; a <= 2; ++a) {
    for (std::uint32_t b = 0; b <= 2; ++b) {
      for (std::uint32_t d = 0; d <= 2; ++d) {
        want.emplace_back(a + b + d, std::vector<std::uint32_t>{a, b, d});
      }
    }
  }
  std::sort(want.begin(), want.end());
  ASSERT_EQ(want.size(), 27u);  // (2+1)^3 cuts
  EXPECT_EQ(census.count_, 27u);
  EXPECT_EQ(census.order_, want);
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

  // The packed word holds 64 one-bit components; the 65th is rejected.
  MonitorBus full;
  for (int i = 0; i < 64; ++i) full.add(&xChecker, xChecker.monitor());
  EXPECT_THROW(full.add(&xChecker, xChecker.monitor()), std::invalid_argument);
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
