// The online, incremental lattice analyzer: same verdicts as the batch
// lattice, levels advanced as early as the buffered messages allow,
// violations reported before the trace even ends.
#include "observer/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <tuple>

#include "../support/fixtures.hpp"
#include "logic/monitor.hpp"
#include "logic/parser.hpp"
#include "observer/checkpoint.hpp"
#include "observer/lattice.hpp"
#include "program/corpus.hpp"
#include "trace/codec.hpp"

namespace mpx::observer {
namespace {

using mpx::testing::landingComputation;
using mpx::testing::observe;
using mpx::testing::xyzComputation;

/// All messages of a finalized graph in emission (globalSeq) order.
std::vector<trace::Message> messagesInOrder(const CausalityGraph& g) {
  std::vector<trace::Message> out;
  for (const auto& ref : g.observedOrder()) out.push_back(g.message(ref));
  return out;
}

TEST(OnlineAnalyzer, MatchesBatchLatticeOnLanding) {
  const auto c = landingComputation();
  logic::SynthesizedMonitor batchMon(logic::SpecParser(c.space).parse(
      program::corpus::landingProperty()));
  ComputationLattice batch(c.graph, c.space);
  std::vector<Violation> batchViolations;
  batch.check(batchMon, batchViolations);

  logic::SynthesizedMonitor onlineMon(logic::SpecParser(c.space).parse(
      program::corpus::landingProperty()));
  OnlineAnalyzer online(c.space, c.prog.threadCount(), &onlineMon);
  for (const auto& m : messagesInOrder(c.graph)) online.onMessage(m);
  online.endOfTrace();

  EXPECT_TRUE(online.finished());
  EXPECT_EQ(online.stats().totalNodes, batch.stats().totalNodes);
  EXPECT_EQ(online.stats().pathCount, batch.stats().pathCount);
  EXPECT_EQ(online.stats().levels, batch.stats().levels);
  EXPECT_EQ(online.violations().size(), batchViolations.size());
}

TEST(OnlineAnalyzer, AnyArrivalOrderSameResult) {
  const auto c = xyzComputation();
  auto msgs = messagesInOrder(c.graph);
  std::mt19937_64 rng(7);

  std::optional<std::size_t> nodes;
  std::optional<std::size_t> nViolations;
  for (int round = 0; round < 20; ++round) {
    std::shuffle(msgs.begin(), msgs.end(), rng);
    logic::SynthesizedMonitor mon(
        logic::SpecParser(c.space).parse(program::corpus::xyzProperty()));
    OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon);
    for (const auto& m : msgs) online.onMessage(m);
    online.endOfTrace();
    ASSERT_TRUE(online.finished());
    if (!nodes) {
      nodes = online.stats().totalNodes;
      nViolations = online.violations().size();
    }
    EXPECT_EQ(online.stats().totalNodes, *nodes) << "round " << round;
    EXPECT_EQ(online.violations().size(), *nViolations) << "round " << round;
  }
  EXPECT_EQ(*nodes, 7u);
  EXPECT_EQ(*nViolations, 1u);
}

TEST(OnlineAnalyzer, ShuffledArrivalMatchesBatchViolationsOnXyz) {
  // Not just the same counts: the same violations, keyed by (cut, state,
  // monitor state), as the batch lattice finds on the observed order.
  const auto c = xyzComputation();
  const auto key = [](const Violation& v) {
    return v.cut.toString() + '|' + v.state.toString() + '|' +
           std::to_string(v.monitorState);
  };
  const auto sortedKeys = [&key](const std::vector<Violation>& vs) {
    std::vector<std::string> keys;
    for (const auto& v : vs) keys.push_back(key(v));
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  LatticeOptions opts;
  opts.maxViolations = 1u << 20;  // the cap must not bind

  logic::SynthesizedMonitor batchMon(
      logic::SpecParser(c.space).parse(program::corpus::xyzProperty()));
  ComputationLattice batch(c.graph, c.space, opts);
  std::vector<Violation> batchViolations;
  batch.check(batchMon, batchViolations);
  ASSERT_FALSE(batchViolations.empty());

  auto msgs = messagesInOrder(c.graph);
  std::mt19937_64 rng(11);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(msgs.begin(), msgs.end(), rng);
    logic::SynthesizedMonitor mon(
        logic::SpecParser(c.space).parse(program::corpus::xyzProperty()));
    OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon, opts);
    for (const auto& m : msgs) online.onMessage(m);
    online.endOfTrace();
    ASSERT_TRUE(online.finished()) << "round " << round;
    EXPECT_EQ(online.stats().totalNodes, batch.stats().totalNodes);
    EXPECT_EQ(sortedKeys(online.violations()), sortedKeys(batchViolations))
        << "round " << round;
  }
}

TEST(OnlineAnalyzer, LevelsAdvanceAsMessagesArrive) {
  const auto c = xyzComputation();
  const auto msgs = messagesInOrder(c.graph);  // e1, e2, e4, e3
  logic::SynthesizedMonitor mon(
      logic::SpecParser(c.space).parse(program::corpus::xyzProperty()));
  OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon);

  EXPECT_EQ(online.levelsCompleted(), 1u);  // level 0 exists
  online.onMessage(msgs[0]);                // e1 = <x=0, T1>
  // T2 stream still unknown; the analyzer cannot rule out that e1 has an
  // enabled sibling — but the frontier cut is level 0 and its T1-successor
  // is available while T2 has no messages... the whole-level rule waits.
  EXPECT_EQ(online.levelsCompleted(), 1u);
  online.onMessage(msgs[1]);  // e2 = <z=1, T2>
  EXPECT_GE(online.levelsCompleted(), 2u);  // level 1 = {S10} computable
  online.onMessage(msgs[2]);  // e4 = <x=1, T2>
  online.onMessage(msgs[3]);  // e3 = <y=1, T1>
  online.endOfTrace();
  EXPECT_TRUE(online.finished());
  EXPECT_EQ(online.levelsCompleted(), 5u);
}

TEST(OnlineAnalyzer, ViolationReportedBeforeEndOfTrace) {
  // Feed all four xyz messages but DO NOT end the trace: the violation is
  // already known (it occurs on the final level, which is computable the
  // moment all its events are present... except the analyzer must wait for
  // possible further events).  So instead check the landing case at an
  // intermediate level: the violating monitor state appears at level 3 of
  // 3 — also final.  The honest early-detection case: a 3-event thread
  // where the violation fires at level 1.
  trace::VarTable dummy;
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  const VarId y = b.var("y", 0);
  auto t1 = b.thread();
  t1.write(x, program::lit(-1)).write(x, program::lit(0));
  auto t2 = b.thread();
  t2.write(y, program::lit(1)).write(y, program::lit(2));
  program::GreedyScheduler sched;
  const auto c = observe(b.build(), sched, {"x", "y"});

  logic::SynthesizedMonitor mon(
      logic::SpecParser(c.space).parse("x >= 0"));
  OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon);
  const auto msgs = messagesInOrder(c.graph);
  // Feed only the first events of each thread: level 1 contains the state
  // x = -1, violating "x >= 0".
  online.onMessage(msgs[0]);  // x = -1 (T1 first)
  ASSERT_GE(msgs.size(), 2u);
  online.onMessage(msgs[2]);  // y = 1 (T2 first)
  EXPECT_GE(online.levelsCompleted(), 2u);
  EXPECT_FALSE(online.violations().empty())
      << "violation should be reported before the trace ends";
  // Finish cleanly.
  online.onMessage(msgs[1]);
  online.onMessage(msgs[3]);
  online.endOfTrace();
  EXPECT_TRUE(online.finished());
}

TEST(OnlineAnalyzer, DuplicateMessageRejected) {
  const auto c = landingComputation();
  OnlineAnalyzer online(c.space, c.prog.threadCount(), nullptr);
  const auto msgs = messagesInOrder(c.graph);
  online.onMessage(msgs[0]);
  EXPECT_THROW(online.onMessage(msgs[0]), std::runtime_error);
}

TEST(OnlineAnalyzer, GapAtEndOfTraceRejected) {
  const auto c = landingComputation();
  OnlineAnalyzer online(c.space, c.prog.threadCount(), nullptr);
  const auto msgs = messagesInOrder(c.graph);
  // Drop the first T1 message but keep the second: a gap.
  for (std::size_t i = 1; i < msgs.size(); ++i) online.onMessage(msgs[i]);
  EXPECT_THROW(online.endOfTrace(), std::runtime_error);
}

TEST(OnlineAnalyzer, MessageAfterEndRejected) {
  const auto c = landingComputation();
  OnlineAnalyzer online(c.space, c.prog.threadCount(), nullptr);
  for (const auto& m : messagesInOrder(c.graph)) online.onMessage(m);
  online.endOfTrace();
  EXPECT_THROW(online.onMessage(messagesInOrder(c.graph)[0]),
               std::logic_error);
}

TEST(OnlineAnalyzer, StructureOnlyModeCountsRuns) {
  const auto c = landingComputation();
  OnlineAnalyzer online(c.space, c.prog.threadCount(), nullptr);
  for (const auto& m : messagesInOrder(c.graph)) online.onMessage(m);
  online.endOfTrace();
  EXPECT_EQ(online.stats().pathCount, 3u);
  EXPECT_EQ(online.stats().totalNodes, 6u);
  EXPECT_TRUE(online.violations().empty());
}

/// Each retained node as (cut, state, run count, monitor states).
using LevelKeys = std::vector<std::vector<std::tuple<
    std::vector<std::uint32_t>, std::vector<Value>, std::uint64_t,
    std::vector<MonitorState>>>>;

LevelKeys keysOf(const std::vector<std::vector<LevelNode>>& levels) {
  LevelKeys out;
  for (const auto& level : levels) {
    auto& keys = out.emplace_back();
    for (const LevelNode& n : level) {
      keys.emplace_back(n.cut.k, n.state.values, n.pathCount,
                        n.monitorStates);
    }
  }
  return out;
}

TEST(OnlineAnalyzer, FullRetentionLevelsIndependentOfArrivalOrder) {
  const auto c = landingComputation();
  LatticeOptions opts;
  opts.retention = Retention::kFull;
  const auto levelsFor = [&](const std::vector<trace::Message>& order) {
    logic::SynthesizedMonitor mon(logic::SpecParser(c.space).parse(
        program::corpus::landingProperty()));
    OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon, opts);
    for (const auto& m : order) online.onMessage(m);
    online.endOfTrace();
    EXPECT_TRUE(online.finished());
    return keysOf(online.levels());
  };
  auto msgs = messagesInOrder(c.graph);
  const LevelKeys observed = levelsFor(msgs);

  // Fig. 5: levels of 1, 2, 2 and 1 cuts over <landing,approved,radio>.
  ASSERT_EQ(observed.size(), 4u);
  const auto stateAt = [&](std::size_t level, std::size_t i) {
    return std::get<1>(observed[level][i]);
  };
  ASSERT_EQ(observed[0].size(), 1u);
  EXPECT_EQ(stateAt(0, 0), (std::vector<Value>{0, 0, 1}));
  ASSERT_EQ(observed[1].size(), 2u);
  EXPECT_EQ(stateAt(1, 0), (std::vector<Value>{0, 0, 0}));
  EXPECT_EQ(stateAt(1, 1), (std::vector<Value>{0, 1, 1}));
  ASSERT_EQ(observed[2].size(), 2u);
  EXPECT_EQ(stateAt(2, 0), (std::vector<Value>{0, 1, 0}));
  EXPECT_EQ(stateAt(2, 1), (std::vector<Value>{1, 1, 1}));
  ASSERT_EQ(observed[3].size(), 1u);
  EXPECT_EQ(stateAt(3, 0), (std::vector<Value>{1, 1, 0}));
  EXPECT_EQ(std::get<2>(observed[3][0]), 3u);  // the three runs

  std::mt19937_64 rng(11);
  for (int round = 0; round < 10; ++round) {
    std::shuffle(msgs.begin(), msgs.end(), rng);
    EXPECT_EQ(levelsFor(msgs), observed) << "round " << round;
  }
}

TEST(OnlineAnalyzer, RandomProgramsMatchBatch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    program::corpus::RandomProgramOptions opts;
    opts.threads = 3;
    opts.vars = 2;
    opts.opsPerThread = 5;
    program::RandomScheduler sched(seed * 5 + 1);
    const auto c = observe(program::corpus::randomProgram(seed, opts), sched,
                           {"g0", "g1"});

    const std::string spec = "historically g0 <= g1 + 6";
    logic::SynthesizedMonitor batchMon(logic::SpecParser(c.space).parse(spec));
    ComputationLattice batch(c.graph, c.space);
    std::vector<Violation> batchViolations;
    batch.check(batchMon, batchViolations);

    logic::SynthesizedMonitor onlineMon(
        logic::SpecParser(c.space).parse(spec));
    OnlineAnalyzer online(c.space, c.prog.threadCount(), &onlineMon);
    auto msgs = messagesInOrder(c.graph);
    std::mt19937_64 rng(seed);
    std::shuffle(msgs.begin(), msgs.end(), rng);
    for (const auto& m : msgs) online.onMessage(m);
    online.endOfTrace();

    EXPECT_EQ(online.stats().totalNodes, batch.stats().totalNodes)
        << "seed " << seed;
    EXPECT_EQ(online.stats().pathCount, batch.stats().pathCount);
    EXPECT_EQ(online.violations().empty(), batchViolations.empty());
  }
}

// --- the live window: release of consumed messages -----------------------

/// A synthetic 2-thread stream: the threads alternately write x (values
/// cycle through 0..6), and every `syncEvery`-th write of each thread also
/// learns the other thread's progress.  syncEvery == 1 is a chain (one
/// cut per level); larger values leave runs of concurrent writes between
/// the synchronization points.
struct Stream {
  trace::VarTable vars;
  StateSpace space;
  std::vector<trace::Message> msgs;
};

Stream twoThreadStream(std::size_t n, std::size_t syncEvery) {
  Stream s;
  const VarId x = s.vars.intern("x", 0);
  s.space = StateSpace::byNames(s.vars, {"x"});
  std::vector<vc::VectorClock> clocks(2, vc::VectorClock(2));
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<ThreadId>(i % 2);
    const ThreadId other = 1 - t;
    vc::VectorClock& c = clocks[t];
    c.set(t, c[t] + 1);
    if ((i / 2) % syncEvery == 0) c.set(other, clocks[other][other]);
    trace::Message m;
    m.event.kind = trace::EventKind::kWrite;
    m.event.thread = t;
    m.event.var = x;
    m.event.value = static_cast<Value>(i % 7);
    m.event.localSeq = c[t];
    m.event.globalSeq = i + 1;
    m.clock = c;
    s.msgs.push_back(m);
  }
  return s;
}

/// The full analyzer state as bytes: equal blobs mean equal frontier,
/// arenas, stats, violations and buffered window.
std::vector<std::uint8_t> blobOf(const OnlineAnalyzer& a) {
  ckpt::Writer w;
  a.checkpoint(w);
  return w.take();
}

TEST(OnlineWindow, ChainBufferStaysBounded) {
  const Stream s = twoThreadStream(100000, 1);
  logic::SynthesizedMonitor mon(logic::SpecParser(s.space).parse("x >= 0"));
  OnlineAnalyzer online(s.space, 2, &mon);
  std::size_t peak = 0;
  for (const auto& m : s.msgs) {
    online.onMessage(m);
    peak = std::max(peak, online.bufferedMessages());
  }
  online.endOfTrace();
  ASSERT_TRUE(online.finished());
  EXPECT_EQ(online.levelsCompleted(), s.msgs.size() + 1);
  EXPECT_EQ(online.pendingMessages(), 0u);
  // One message per thread for the frontier cut, plus the one that waits
  // for the other thread's next message.
  EXPECT_LE(peak, 4u);
  EXPECT_LE(online.bufferedMessages(), 2u);
}

TEST(OnlineWindow, DuplicateOfFreedMessageRejected) {
  const Stream s = twoThreadStream(100, 1);
  OnlineAnalyzer online(s.space, 2, nullptr);
  for (const auto& m : s.msgs) online.onMessage(m);
  ASSERT_LT(online.bufferedMessages(), 10u);  // the early ones are freed
  const std::size_t pending = online.pendingMessages();
  EXPECT_THROW(online.onMessage(s.msgs[0]), std::runtime_error);
  EXPECT_THROW(online.onMessage(s.msgs[41]), std::runtime_error);
  EXPECT_THROW(online.onMessage(s.msgs.back()), std::runtime_error);
  EXPECT_EQ(online.pendingMessages(), pending);
  online.endOfTrace();
  EXPECT_TRUE(online.finished());
}

TEST(OnlineWindow, GapStillRejectedAtEndOfTrace) {
  const Stream s = twoThreadStream(100, 1);
  OnlineAnalyzer online(s.space, 2, nullptr);
  for (std::size_t i = 0; i < s.msgs.size(); ++i) {
    if (i != 50) online.onMessage(s.msgs[i]);
  }
  // The chain cannot pass the missing message: levels stop before it.
  EXPECT_LE(online.levelsCompleted(), 51u);
  EXPECT_EQ(online.pendingMessages(), s.msgs.size() - 1 -
                                          (online.levelsCompleted() - 1));
  EXPECT_THROW(online.endOfTrace(), std::runtime_error);
  EXPECT_FALSE(online.finished());
}

TEST(OnlineWindow, ReversedWindowsMatchInOrderArrival) {
  const Stream s = twoThreadStream(2000, 4);
  std::vector<trace::Message> reversed = s.msgs;
  for (std::size_t b = 0; b < reversed.size(); b += 64) {
    const auto end = reversed.begin() +
                     static_cast<std::ptrdiff_t>(
                         std::min(b + 64, reversed.size()));
    std::reverse(reversed.begin() + static_cast<std::ptrdiff_t>(b), end);
  }
  LatticeOptions full;
  full.maxViolations = 1u << 20;
  LatticeOptions shed = full;  // the ladder sheds cuts on most levels
  shed.maxFrontier = 2;
  for (const LatticeOptions& opts : {full, shed}) {
    const auto run = [&](const std::vector<trace::Message>& order) {
      logic::SynthesizedMonitor mon(
          logic::SpecParser(s.space).parse("x <= 5"));
      OnlineAnalyzer online(s.space, 2, &mon, opts);
      std::size_t peak = 0;
      for (const auto& m : order) {
        online.onMessage(m);
        peak = std::max(peak, online.bufferedMessages());
      }
      online.endOfTrace();
      EXPECT_TRUE(online.finished());
      EXPECT_LE(peak, 64u + 16u);  // the reversal window plus the frontier
      EXPECT_EQ(online.stats().droppedNodes > 0, opts.maxFrontier != 0);
      return std::make_tuple(online.stats().totalNodes,
                             online.violations().size(), blobOf(online));
    };
    const auto [nodes, violations, blob] = run(s.msgs);
    const auto [nodesR, violationsR, blobR] = run(reversed);
    EXPECT_GT(nodes, s.msgs.size() + 1);  // the stream is not a chain
    EXPECT_GT(violations, 0u);
    EXPECT_EQ(nodesR, nodes);
    EXPECT_EQ(violationsR, violations);
    EXPECT_EQ(blobR, blob) << "maxFrontier " << opts.maxFrontier;
  }
}

TEST(OnlineWindow, CheckpointHoldsOnlyTheLiveWindow) {
  // Witness paths grow with the run by design; without them the blob is
  // the window alone.
  LatticeOptions opts;
  opts.recordPaths = false;
  const Stream s = twoThreadStream(10000, 1);
  const auto blobAfter = [&](std::size_t n) {
    logic::SynthesizedMonitor mon(logic::SpecParser(s.space).parse("x >= 0"));
    OnlineAnalyzer online(s.space, 2, &mon, opts);
    for (std::size_t i = 0; i < n; ++i) online.onMessage(s.msgs[i]);
    return blobOf(online).size();
  };
  EXPECT_LE(blobAfter(10000), blobAfter(1000));
}

TEST(OnlineWindow, RestoreMidStreamFinishesIdentically) {
  const Stream s = twoThreadStream(10000, 3);
  const std::string spec = "x <= 5";
  logic::SynthesizedMonitor refMon(logic::SpecParser(s.space).parse(spec));
  OnlineAnalyzer ref(s.space, 2, &refMon);
  for (const auto& m : s.msgs) ref.onMessage(m);
  ref.endOfTrace();
  ASSERT_TRUE(ref.finished());

  const std::size_t half = s.msgs.size() / 2;
  logic::SynthesizedMonitor liveMon(logic::SpecParser(s.space).parse(spec));
  OnlineAnalyzer live(s.space, 2, &liveMon);
  for (std::size_t i = 0; i < half; ++i) live.onMessage(s.msgs[i]);
  const std::vector<std::uint8_t> blob = blobOf(live);

  logic::SynthesizedMonitor mon(logic::SpecParser(s.space).parse(spec));
  OnlineAnalyzer restored(s.space, 2, &mon);
  ckpt::Reader r(blob);
  ASSERT_TRUE(restored.restore(r));
  EXPECT_EQ(restored.pendingMessages(), live.pendingMessages());
  EXPECT_EQ(restored.bufferedMessages(), live.bufferedMessages());
  EXPECT_EQ(restored.consumedK(), live.consumedK());
  EXPECT_THROW(restored.onMessage(s.msgs[half / 2]), std::runtime_error);
  for (std::size_t i = half; i < s.msgs.size(); ++i) {
    restored.onMessage(s.msgs[i]);
  }
  restored.endOfTrace();
  ASSERT_TRUE(restored.finished());
  EXPECT_EQ(restored.violations().size(), ref.violations().size());
  EXPECT_EQ(blobOf(restored), blobOf(ref));
}

TEST(OnlineWindow, RestoreRejectsForgedFrontierBytes) {
  // The budget ladder charges the previous frontier's accounted bytes on
  // the next level, so a blob must not be able to set them.
  const Stream s = twoThreadStream(2000, 4);
  LatticeOptions opts;
  opts.memoryBudgetBytes = 1u << 20;  // never binds on this stream
  OnlineAnalyzer live(s.space, 2, nullptr, opts);
  for (std::size_t i = 0; i < s.msgs.size() / 2; ++i) {
    live.onMessage(s.msgs[i]);
  }
  ASSERT_EQ(live.stats().droppedNodes, 0u);
  const std::vector<std::uint8_t> blob = blobOf(live);
  {
    OnlineAnalyzer intact(s.space, 2, nullptr, opts);
    ckpt::Reader r(blob);
    ASSERT_TRUE(intact.restore(r));
  }

  // The blob ends with the frontier's byte tally, the stats block and the
  // violation count (0: no monitor).
  constexpr std::size_t kStatsBytes = 157;
  const std::size_t at = blob.size() - 8 - kStatsBytes - 8;
  ckpt::Reader tally(blob.data() + at, 8);
  ASSERT_GT(tally.u64(), 0u);
  // Claim the frontier fills the whole budget: the next level would shed.
  std::vector<std::uint8_t> forged = blob;
  for (std::size_t i = 0; i < 8; ++i) {
    forged[at + i] =
        static_cast<std::uint8_t>(opts.memoryBudgetBytes >> (8 * i));
  }
  OnlineAnalyzer restored(s.space, 2, nullptr, opts);
  ckpt::Reader r(forged);
  EXPECT_FALSE(restored.restore(r));
}

TEST(OnlineWindow, RestoreRejectsDuplicateCutsAndWrongWidths) {
  // A hand-written blob of a 2-thread analyzer over one variable, with no
  // messages and a frontier of the given rows, each with the zero cut.
  trace::VarTable vars;
  vars.intern("x", 0);
  const StateSpace space = StateSpace::byNames(vars, {"x"});
  const auto blob = [](std::size_t rows, std::size_t cutWidth,
                       std::size_t stateWidth) {
    ckpt::Writer w;
    w.u8(1);                       // layout version
    w.u64(2);                      // threads
    w.boolean(false);              // ended
    w.boolean(false);              // finished
    w.u64(0);                      // pending
    for (int j = 0; j < 2; ++j) w.u64(0);  // consumedK
    for (int j = 0; j < 2; ++j) w.u64(0);  // buffered messages per thread
    w.u64(1);                      // one state ...
    w.u64(stateWidth);             // ... of this width
    for (std::size_t i = 0; i < stateWidth; ++i) w.i64(0);
    w.u64(0);                      // retired state-arena word
    w.u64(0);                      // monitor sets
    w.u64(0);                      // monitor-set hits
    w.u64(0);                      // witness path nodes
    w.u64(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      w.u64(cutWidth);
      for (std::size_t j = 0; j < cutWidth; ++j) w.u32(0);
      w.u64(0);  // state index
      w.u64(1);  // path count
      w.u64(0);  // monitor entries
      w.u64(0);  // witness when no monitor runs
    }
    w.u64(rows * (112 + 2 * 4 + 8));  // the byte model's frontier tally
    // The stats block, all zero: 19 words and 3 flags (interleaved, so
    // all-zero bytes in any order), then the rung and the bound reason.
    for (int i = 0; i < 19 * 8 + 3 + 2; ++i) w.u8(0);
    w.u64(0);  // violations
    return w.take();
  };
  const auto restores = [&space](const std::vector<std::uint8_t>& bytes) {
    OnlineAnalyzer a(space, 2, nullptr);
    ckpt::Reader r(bytes);
    return a.restore(r);
  };
  EXPECT_TRUE(restores(blob(1, 2, 1)));
  EXPECT_FALSE(restores(blob(2, 2, 1)));  // the zero cut twice
  EXPECT_FALSE(restores(blob(1, 3, 1)));  // a cut of three components
  EXPECT_FALSE(restores(blob(1, 2, 2)));  // a state of two values
}

TEST(OnlineWindow, BlobCarryingConsumedMessagesRestores) {
  // Analyzers that kept every message wrote blobs with the same layout
  // but a message section holding all arrived messages.  Build one by
  // splicing the consumed messages back into a current blob.
  const Stream s = twoThreadStream(3000, 3);
  const std::string spec = "x <= 5";
  logic::SynthesizedMonitor refMon(logic::SpecParser(s.space).parse(spec));
  OnlineAnalyzer ref(s.space, 2, &refMon);
  for (const auto& m : s.msgs) ref.onMessage(m);
  ref.endOfTrace();

  const std::size_t half = s.msgs.size() / 2;
  logic::SynthesizedMonitor liveMon(logic::SpecParser(s.space).parse(spec));
  OnlineAnalyzer live(s.space, 2, &liveMon);
  for (std::size_t i = 0; i < half; ++i) live.onMessage(s.msgs[i]);
  const std::vector<std::uint8_t> blob = blobOf(live);

  ckpt::Reader r(blob);
  ckpt::Writer w;
  w.u8(r.u8());  // layout version
  const std::uint64_t threads = r.u64();
  w.u64(threads);
  w.boolean(r.boolean());  // ended
  w.boolean(r.boolean());  // finished
  w.u64(r.u64());          // pending
  for (std::uint64_t j = 0; j < threads; ++j) w.u64(r.u64());  // consumedK
  std::vector<std::map<LocalSeq, trace::Message>> all(threads);
  for (std::size_t i = 0; i < half; ++i) {
    const ThreadId t = s.msgs[i].event.thread;
    all[t].emplace(s.msgs[i].clock[t], s.msgs[i]);
  }
  std::size_t liveWindow = 0;
  for (std::uint64_t j = 0; j < threads; ++j) {
    const std::uint64_t count = r.u64();
    liveWindow += count;
    for (std::uint64_t i = 0; i < count; ++i) {
      (void)r.u64();
      std::vector<std::uint8_t> skip(r.u64());
      ASSERT_TRUE(r.raw(skip.data(), skip.size()));
    }
    w.u64(all[j].size());
    for (const auto& [k, m] : all[j]) {
      std::vector<std::uint8_t> enc;
      trace::BinaryCodec::encode(m, enc);
      w.u64(k);
      w.u64(enc.size());
      w.bytes(enc.data(), enc.size());
    }
  }
  ASSERT_TRUE(r.ok());
  const std::size_t tail = r.remaining();
  w.bytes(blob.data() + blob.size() - tail, tail);
  const std::vector<std::uint8_t> legacy = w.take();
  ASSERT_GT(legacy.size(), blob.size());
  ASSERT_LT(liveWindow, half);

  logic::SynthesizedMonitor mon(logic::SpecParser(s.space).parse(spec));
  OnlineAnalyzer restored(s.space, 2, &mon);
  ckpt::Reader lr(legacy);
  ASSERT_TRUE(restored.restore(lr));
  EXPECT_EQ(restored.pendingMessages(), live.pendingMessages());
  EXPECT_EQ(restored.bufferedMessages(), live.bufferedMessages());
  EXPECT_EQ(blobOf(restored), blob);
  for (std::size_t i = half; i < s.msgs.size(); ++i) {
    restored.onMessage(s.msgs[i]);
  }
  restored.endOfTrace();
  ASSERT_TRUE(restored.finished());
  EXPECT_EQ(blobOf(restored), blobOf(ref));
}

}  // namespace
}  // namespace mpx::observer
