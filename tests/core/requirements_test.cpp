// Requirements (a), (b), (c) for Algorithm A (paper §3), verified event by
// event against the specification-level ReferenceCausality on random
// programs — the paper derives the algorithm from exactly these properties.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/instrumentor.hpp"
#include "core/reference.hpp"
#include "program/corpus.hpp"
#include "program/scheduler.hpp"
#include "trace/channel.hpp"

namespace mpx::core {
namespace {

struct SweepCase {
  std::uint64_t programSeed;
  std::uint64_t scheduleSeed;
  std::size_t threads;
  std::size_t vars;
  bool locks;
};

/// "p<program>s<schedule>t<threads>v<vars>[L]": the test name suffix.
std::string label(const SweepCase& c) {
  return "p" + std::to_string(c.programSeed) + "s" +
         std::to_string(c.scheduleSeed) + "t" + std::to_string(c.threads) +
         "v" + std::to_string(c.vars) + (c.locks ? "L" : "");
}

/// gtest prints the parameter after each test name; without this it
/// prints the struct's raw bytes, padding included, which differ from
/// build to build.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << label(c); }

class RequirementsSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RequirementsSweep, MvcsMatchTheSpecification) {
  const SweepCase c = GetParam();
  program::corpus::RandomProgramOptions opts;
  opts.threads = c.threads;
  opts.vars = c.vars;
  opts.opsPerThread = 6;
  opts.locks = c.locks ? 2 : 0;
  const program::Program prog =
      program::corpus::randomProgram(c.programSeed, opts);
  const program::ExecutionRecord rec =
      program::runProgramRandom(prog, c.scheduleSeed);

  // Relevance: the JMPaX default — writes of all data variables.
  std::unordered_set<VarId> dataVars;
  for (const VarId v : prog.vars.idsWithRole(trace::VarRole::kData)) {
    dataVars.insert(v);
  }
  const RelevancePolicy policy = RelevancePolicy::writesOf(dataVars);

  const ReferenceCausality ref(rec.events);

  trace::CollectingSink sink;
  Instrumentor instr(policy, sink);

  // Variables and threads touched so far (requirements quantify over them).
  const std::size_t nThreads = prog.threads.size();

  for (std::size_t k = 0; k < rec.events.size(); ++k) {
    instr.onEvent(rec.events[k]);
    const ThreadId i = rec.events[k].thread;

    // Requirement (a): V_i[j] = #relevant events of t_j causally preceding
    // e^k_i (including itself when relevant and j == i).
    for (ThreadId j = 0; j < nThreads; ++j) {
      EXPECT_EQ(instr.threadClock(i)[j],
                ref.relevantPredecessorsFromThread(k, j, policy))
          << "req (a) failed at event " << k << " for thread " << j;
    }

    // Requirements (b) and (c) for the accessed variable.
    if (rec.events[k].accessesVariable()) {
      const VarId x = rec.events[k].var;
      for (ThreadId j = 0; j < nThreads; ++j) {
        EXPECT_EQ(instr.accessClock(x)[j],
                  ref.relevantUpToLastAccess(k, x, j, policy))
            << "req (b) failed at event " << k << " var " << x;
        EXPECT_EQ(instr.writeClock(x)[j],
                  ref.relevantUpToLastWrite(k, x, j, policy))
            << "req (c) failed at event " << k << " var " << x;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, RequirementsSweep,
    ::testing::Values(SweepCase{1, 1, 2, 2, false},
                      SweepCase{2, 7, 3, 2, false},
                      SweepCase{3, 5, 3, 3, false},
                      SweepCase{4, 9, 4, 2, false},
                      SweepCase{5, 3, 2, 1, false},
                      SweepCase{6, 11, 3, 3, true},
                      SweepCase{7, 13, 4, 2, true},
                      SweepCase{8, 17, 2, 4, true}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return label(info.param);
    });

// The same sweep with every access relevant (the race-detection relevance):
// exercises step 1 on reads too.
class AllAccessRelevance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllAccessRelevance, RequirementAHoldsForReadRelevance) {
  program::corpus::RandomProgramOptions opts;
  opts.threads = 3;
  opts.vars = 2;
  opts.opsPerThread = 5;
  const program::Program prog =
      program::corpus::randomProgram(GetParam(), opts);
  const program::ExecutionRecord rec =
      program::runProgramRandom(prog, GetParam() ^ 0xbeef);

  const RelevancePolicy policy = RelevancePolicy::allSharedAccesses();
  const ReferenceCausality ref(rec.events);
  trace::CollectingSink sink;
  Instrumentor instr(policy, sink);
  for (std::size_t k = 0; k < rec.events.size(); ++k) {
    instr.onEvent(rec.events[k]);
    const ThreadId i = rec.events[k].thread;
    for (ThreadId j = 0; j < prog.threads.size(); ++j) {
      ASSERT_EQ(instr.threadClock(i)[j],
                ref.relevantPredecessorsFromThread(k, j, policy))
          << "event " << k << " thread " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllAccessRelevance,
                         ::testing::Values(21, 22, 23, 24, 25));

}  // namespace
}  // namespace mpx::core
