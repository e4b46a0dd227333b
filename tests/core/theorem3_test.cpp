// Theorem 3 (paper §3): for any two messages <e,i,V> and <e',i',V'> sent by
// Algorithm A,  e ⊳ e'  iff  V[i] <= V'[i]  iff  V < V'.
//
// Verified on random programs against the specification-level causality,
// plus: concurrency coincides with clock incomparability, and the relevant
// causality is exactly ≺ restricted to R × R.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/instrumentor.hpp"
#include "core/reference.hpp"
#include "program/corpus.hpp"
#include "program/scheduler.hpp"
#include "trace/channel.hpp"

namespace mpx::core {
namespace {

struct RunResult {
  program::Program prog;
  program::ExecutionRecord rec;
  std::vector<trace::Message> messages;
  std::vector<std::size_t> eventIndex;  // message -> index into rec.events
  RelevancePolicy policy = RelevancePolicy::nothing();
};

RunResult run(std::uint64_t seed, bool locks, bool readsRelevant,
              std::size_t threads = 3) {
  RunResult s;
  program::corpus::RandomProgramOptions opts;
  opts.threads = threads;
  opts.vars = 3;
  opts.opsPerThread = 7;
  opts.locks = locks ? 2 : 0;
  s.prog = program::corpus::randomProgram(seed, opts);
  s.rec = program::runProgramRandom(s.prog, seed * 7919 + 13);

  std::unordered_set<VarId> dataVars;
  for (const VarId v : s.prog.vars.idsWithRole(trace::VarRole::kData)) {
    dataVars.insert(v);
  }
  s.policy = readsRelevant ? RelevancePolicy::accessesOf(dataVars)
                           : RelevancePolicy::writesOf(dataVars);

  trace::CollectingSink sink;
  Instrumentor instr(s.policy, sink);
  for (std::size_t k = 0; k < s.rec.events.size(); ++k) {
    const std::size_t before = sink.messages().size();
    instr.onEvent(s.rec.events[k]);
    if (sink.messages().size() > before) s.eventIndex.push_back(k);
  }
  s.messages = sink.take();
  return s;
}

struct Theorem3Case {
  std::uint64_t seed;
  bool locks;
  bool readsRelevant;
  /// Above VectorClock::kInlineComponents (8) the clocks live on the heap.
  std::uint32_t threads = 3;
};

/// The case's label, e.g. "seed202_locks_reads_t9"; gtest_discover_tests
/// names the ctest test after it, so it must not depend on the struct's
/// padding bytes.
void PrintTo(const Theorem3Case& c, std::ostream* os) {
  *os << "seed" << c.seed << (c.locks ? "_locks" : "")
      << (c.readsRelevant ? "_reads" : "");
  if (c.threads != 3) *os << "_t" << c.threads;
}

class Theorem3Sweep : public ::testing::TestWithParam<Theorem3Case> {};

TEST_P(Theorem3Sweep, ClockOrderEqualsRelevantCausality) {
  const auto c = GetParam();
  const RunResult s = run(c.seed, c.locks, c.readsRelevant, c.threads);
  ASSERT_FALSE(s.messages.empty());
  if (c.threads > vc::VectorClock::kInlineComponents) {
    EXPECT_TRUE(std::any_of(
        s.messages.begin(), s.messages.end(),
        [](const trace::Message& m) { return !m.clock.isInline(); }))
        << "no message carries a heap-backed clock";
  }
  const ReferenceCausality ref(s.rec.events);

  for (std::size_t a = 0; a < s.messages.size(); ++a) {
    for (std::size_t b = 0; b < s.messages.size(); ++b) {
      if (a == b) continue;
      const trace::Message& ma = s.messages[a];
      const trace::Message& mb = s.messages[b];
      const bool specPrecedes = ref.precedes(s.eventIndex[a], s.eventIndex[b]);

      // First form: V[i] <= V'[i].
      EXPECT_EQ(ma.causallyPrecedes(mb), specPrecedes)
          << "messages " << a << " -> " << b << " (seed " << c.seed << ")";
      // Second form: V < V'.
      EXPECT_EQ(ma.clock.less(mb.clock), specPrecedes)
          << "clock-less mismatch " << a << " -> " << b;
    }
  }
}

TEST_P(Theorem3Sweep, ConcurrencyIsClockIncomparability) {
  const auto c = GetParam();
  const RunResult s = run(c.seed, c.locks, c.readsRelevant, c.threads);
  const ReferenceCausality ref(s.rec.events);
  for (std::size_t a = 0; a < s.messages.size(); ++a) {
    for (std::size_t b = a + 1; b < s.messages.size(); ++b) {
      const bool specConcurrent =
          ref.concurrent(s.eventIndex[a], s.eventIndex[b]);
      EXPECT_EQ(s.messages[a].concurrentWith(s.messages[b]), specConcurrent);
      EXPECT_EQ(s.messages[a].clock.concurrentWith(s.messages[b].clock),
                specConcurrent);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem3Sweep,
    ::testing::Values(Theorem3Case{101, false, false},
                      Theorem3Case{102, false, false},
                      Theorem3Case{103, true, false},
                      Theorem3Case{104, true, false},
                      Theorem3Case{105, false, true},
                      Theorem3Case{106, true, true},
                      Theorem3Case{107, true, true},
                      Theorem3Case{108, false, true},
                      Theorem3Case{201, false, false, 9},
                      Theorem3Case{202, true, true, 9},
                      Theorem3Case{203, true, false, 16},
                      Theorem3Case{204, false, true, 16}));

TEST(Theorem3, SameThreadMessagesAreTotallyOrdered) {
  const RunResult s = run(42, true, true);
  for (std::size_t a = 0; a < s.messages.size(); ++a) {
    for (std::size_t b = a + 1; b < s.messages.size(); ++b) {
      if (s.messages[a].thread() != s.messages[b].thread()) continue;
      EXPECT_TRUE(s.messages[a].causallyPrecedes(s.messages[b]) ||
                  s.messages[b].causallyPrecedes(s.messages[a]));
    }
  }
}

TEST(Theorem3, OwnComponentCountsOwnRelevantEvents) {
  // The i-th component of thread i's k-th message is exactly k — this is
  // what lets the observer order and gap-check per-thread streams.
  const RunResult s = run(55, false, false);
  std::vector<std::uint64_t> counts;
  for (const trace::Message& m : s.messages) {
    const ThreadId i = m.thread();
    if (i >= counts.size()) counts.resize(i + 1, 0);
    EXPECT_EQ(m.clock[i], ++counts[i]);
  }
}

}  // namespace
}  // namespace mpx::core
