// One-pass equivalence (the tentpole guarantee): checking K properties as
// plugins in ONE lattice pass produces byte-identical per-property reports
// to K independent single-property passes — for FIFO and shuffled message
// delivery.
//
// The baselines track the UNION of all specs' variables (ptLTL is
// stutter-sensitive, so the reference semantics is a single-property pass
// over the union space; see engine.hpp).
#include "analysis/engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "program/corpus.hpp"
#include "program/scheduler.hpp"

namespace mpx::analysis {
namespace {

namespace corpus = program::corpus;

struct Scenario {
  const char* label;
  program::Program prog;
  std::vector<std::string> specs;
  program::ExecutionRecord rec;
};

program::ExecutionRecord record(const program::Program& prog,
                                const std::vector<ThreadId>& schedule) {
  program::FixedScheduler sched(schedule);
  return program::runProgram(prog, sched);
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  {
    Scenario s;
    s.label = "landing";
    s.prog = corpus::landingController();
    s.specs = {corpus::landingProperty(), "!(landing = 1 && radio = 0)",
               "landing = 1 -> approved = 1"};
    s.rec = record(s.prog, corpus::landingObservedSchedule());
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.label = "xyz";
    s.prog = corpus::xyzProgram();
    s.specs = {corpus::xyzProperty(), "!(x > 0 && y = 0)"};
    s.rec = record(s.prog, corpus::xyzObservedSchedule());
    out.push_back(std::move(s));
  }
  return out;
}

EngineConfig multiConfig(const Scenario& s, trace::DeliveryPolicy delivery) {
  EngineConfig c;
  c.specs = s.specs;
  c.delivery = delivery;
  c.deliverySeed = 7;
  // A shared violation cap hits sooner with K monitors riding one pass;
  // keep it out of the way so reports compare on content, not truncation.
  c.lattice.maxViolations = 1u << 12;
  return c;
}

void expectOnePassEquivalence(const Scenario& s,
                              trace::DeliveryPolicy delivery) {
  SCOPED_TRACE(std::string(s.label) +
               " delivery=" + std::to_string(static_cast<int>(delivery)));

  const Engine multiEngine(s.prog, multiConfig(s, delivery));
  const EngineResult multi = multiEngine.run(s.rec);
  ASSERT_EQ(multi.specs.size(), s.specs.size());
  ASSERT_GE(multi.reports.size(), s.specs.size());

  for (std::size_t i = 0; i < s.specs.size(); ++i) {
    EngineConfig single = multiConfig(s, delivery);
    single.specs = {s.specs[i]};
    single.extraTrackedVars = multiEngine.trackedVariables();
    const Engine singleEngine(s.prog, single);

    // Same union space => same messages, same lattice.
    ASSERT_EQ(singleEngine.trackedVariables().size(),
              multiEngine.trackedVariables().size());
    const EngineResult one = singleEngine.run(s.rec);

    EXPECT_EQ(one.latticeStats.totalNodes, multi.latticeStats.totalNodes);
    ASSERT_FALSE(one.reports.empty());
    EXPECT_EQ(multi.reports[i].name, one.reports[0].name);
    EXPECT_EQ(multi.reports[i].violationCount, one.reports[0].violationCount);
    EXPECT_EQ(multi.reports[i].text, one.reports[0].text)
        << "spec " << i << " (" << s.specs[i] << ")";
    EXPECT_EQ(multi.specs[i].spec, s.specs[i]);
    EXPECT_EQ(multi.specs[i].violations.size(),
              one.specs[0].violations.size());
    EXPECT_EQ(multi.specs[i].observedViolationIndex,
              one.specs[0].observedViolationIndex);
  }
}

TEST(OnePassEquivalence, FifoSerial) {
  for (const auto& s : scenarios()) {
    expectOnePassEquivalence(s, trace::DeliveryPolicy::kFifo);
  }
}

TEST(OnePassEquivalence, ShuffledDeliverySerial) {
  // Theorem 3: the lattice (and hence every report) is delivery-invariant.
  for (const auto& s : scenarios()) {
    expectOnePassEquivalence(s, trace::DeliveryPolicy::kShuffle);
  }
}

TEST(OnePassEquivalence, ShuffleAgreesWithFifo) {
  // Stronger than pairwise: the one-pass report itself is identical across
  // delivery orders, so equivalence is not vacuous per-delivery.
  for (const auto& s : scenarios()) {
    const Engine fifoEngine(
        s.prog, multiConfig(s, trace::DeliveryPolicy::kFifo));
    const Engine shufEngine(
        s.prog, multiConfig(s, trace::DeliveryPolicy::kShuffle));
    const EngineResult a = fifoEngine.run(s.rec);
    const EngineResult b = shufEngine.run(s.rec);
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
      EXPECT_EQ(a.reports[i].text, b.reports[i].text) << s.label;
    }
  }
}

TEST(OnePassEquivalence, AtLeastOneSpecPredictsAViolation) {
  // Guards against the whole suite passing on empty reports.
  for (const auto& s : scenarios()) {
    const Engine engine(s.prog, multiConfig(s, trace::DeliveryPolicy::kFifo));
    const EngineResult r = engine.run(s.rec);
    EXPECT_TRUE(r.predictsViolation()) << s.label;
    // Every edge either built a cut or reached one already built.
    EXPECT_EQ(r.latticeStats.internHits + r.latticeStats.internMisses,
              r.latticeStats.totalEdges)
        << s.label;
  }
}

}  // namespace
}  // namespace mpx::analysis
