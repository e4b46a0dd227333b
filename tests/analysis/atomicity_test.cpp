// Unit coverage for the ISSUE 10 analyses: AtomicityAnalysis (annotated
// atomic regions checked for conflict serializability) and MhpPrefilter
// (never-concurrent pair classification + lockset race-free variables),
// including the hostile-input shapes (unmatched ends, regions open at
// trace end / stream death), checkpoint/restore across an open region,
// and budget-degraded runs staying oracle-confirmed.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "../support/trace_gen.hpp"
#include "analysis/atomicity_analysis.hpp"
#include "analysis/engine.hpp"
#include "analysis/mhp_prefilter.hpp"
#include "analysis/report.hpp"
#include "analysis/session.hpp"
#include "detect/race_analysis.hpp"
#include "program/corpus.hpp"
#include "program/program.hpp"
#include "program/scheduler.hpp"

namespace mpx::analysis {
namespace {

namespace corpus = program::corpus;
using program::lit;

/// Runs `prog` under a fixed schedule with the two plugins on the engine
/// bus (no specs: plugin-only pass over the given tracked variables).
struct PluginRun {
  EngineResult result;
  std::unique_ptr<AtomicityAnalysis> atom;
  std::unique_ptr<MhpPrefilter> mhp;
};

PluginRun runWithSchedule(const program::Program& prog,
                          const std::vector<ThreadId>& schedule,
                          const std::vector<std::string>& tracked) {
  program::FixedScheduler sched(schedule);
  program::Executor ex(prog, sched);
  EngineConfig ec;
  ec.extraTrackedVars = tracked;
  const Engine engine(prog, ec);
  PluginRun out;
  out.atom = std::make_unique<AtomicityAnalysis>(&prog.vars);
  out.mhp = std::make_unique<MhpPrefilter>(&prog.vars);
  out.result = engine.run(ex.run(), {out.mhp.get(), out.atom.get()});
  return out;
}

// ===================================================================
// AtomicityAnalysis
// ===================================================================

TEST(Atomicity, DemoViolationWithWitnessCycle) {
  const program::Program prog = corpus::atomicityDemo();
  const PluginRun r = runWithSchedule(
      prog, corpus::atomicityDemoViolatingSchedule(), {"acct", "audit"});

  const auto viol = r.atom->violations();
  ASSERT_EQ(viol.size(), 1u);
  EXPECT_EQ(viol[0].thread, 0u);
  EXPECT_EQ(viol[0].ordinal, 1u);
  EXPECT_EQ(viol[0].regionId, 1);
  // The canonical witness starts and ends at the violating region and
  // passes through the bumper's unannotated pair.
  ASSERT_GE(viol[0].cycle.size(), 3u);
  EXPECT_EQ(viol[0].cycle.front(), "T1#1");
  EXPECT_EQ(viol[0].cycle.back(), "T1#1");
  EXPECT_TRUE(std::any_of(viol[0].cycle.begin(), viol[0].cycle.end(),
                          [](const std::string& n) {
                            return n.rfind("T2@k", 0) == 0;
                          }));

  EXPECT_EQ(r.atom->regionCount(), 1u);
  EXPECT_EQ(r.atom->openRegions(), 0u);
  EXPECT_EQ(r.atom->unmatchedEnds(), 0u);
  const observer::AnalysisReport rep = r.atom->report();
  EXPECT_EQ(rep.violationCount, 1u);
  EXPECT_NE(rep.text.find("violations=1"), std::string::npos) << rep.text;
  EXPECT_NE(rep.text.find("region T1#1 r1: cycle"), std::string::npos)
      << rep.text;
}

TEST(Atomicity, SerialScheduleIsSerializable) {
  const program::Program prog = corpus::atomicityDemo();
  // Checker runs to completion before the bumper starts: trivially serial.
  const PluginRun r = runWithSchedule(prog, {0, 0, 0, 0, 0, 1, 1, 1},
                                      {"acct", "audit"});
  EXPECT_TRUE(r.atom->violations().empty());
  EXPECT_EQ(r.atom->regionCount(), 1u);
  EXPECT_NE(r.atom->report().text.find("violations=0"), std::string::npos);
}

TEST(Atomicity, NestedRegionsMergeIntoOutermost) {
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  const VarId y = b.var("y", 0);
  auto t0 = b.thread("outer");
  t0.regionBegin(1);
  t0.write(x, lit(1));
  t0.regionBegin(2);  // nested: merges into region 1
  t0.write(y, lit(1));
  t0.regionEnd(2);
  t0.regionEnd(1);
  auto t1 = b.thread("other");
  t1.write(x, lit(2));
  t1.write(y, lit(2));
  const program::Program prog = b.build();

  // t1's pair lands between the region's two writes: cycle through the
  // merged (outermost) region.
  const PluginRun r =
      runWithSchedule(prog, {0, 0, 1, 1, 0, 0, 0, 0, 0, 1}, {"x", "y"});
  const auto viol = r.atom->violations();
  ASSERT_EQ(viol.size(), 1u);
  EXPECT_EQ(viol[0].regionId, 1);  // the outermost region's id
  // The nested begin did NOT open a second region.
  EXPECT_EQ(r.atom->regionCount(), 1u);
  EXPECT_EQ(viol[0].ordinal, 1u);
}

TEST(Atomicity, EmptyRegionIsTrivial) {
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  auto t0 = b.thread("annotator");
  t0.regionBegin(5);
  t0.regionEnd(5);
  t0.write(x, lit(1));
  auto t1 = b.thread("writer");
  t1.write(x, lit(2));
  const program::Program prog = b.build();

  const PluginRun r = runWithSchedule(prog, {0, 0, 1, 0, 0, 1}, {"x"});
  EXPECT_EQ(r.atom->regionCount(), 1u);
  EXPECT_TRUE(r.atom->violations().empty());
  EXPECT_EQ(r.atom->openRegions(), 0u);
}

TEST(Atomicity, UnmatchedEndIsCountedNoOp) {
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  auto t0 = b.thread("hostile");
  t0.regionEnd(9);  // end without begin: counted, otherwise a no-op
  t0.write(x, lit(1));
  auto t1 = b.thread("writer");
  t1.write(x, lit(2));
  const program::Program prog = b.build();

  const PluginRun r = runWithSchedule(prog, {0, 0, 1, 0, 1}, {"x"});
  EXPECT_EQ(r.atom->unmatchedEnds(), 1u);
  EXPECT_EQ(r.atom->regionCount(), 0u);
  EXPECT_TRUE(r.atom->violations().empty());
  EXPECT_NE(r.atom->report().text.find("unmatched-ends=1"),
            std::string::npos);
}

TEST(Atomicity, OpenRegionAtTraceEndIsChecked) {
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  const VarId y = b.var("y", 0);
  auto t0 = b.thread("unclosed");
  t0.regionBegin(3);
  t0.write(x, lit(1));
  t0.write(y, lit(1));
  // No regionEnd: the region extends to the end of the trace.
  auto t1 = b.thread("other");
  t1.write(x, lit(2));
  t1.write(y, lit(2));
  const program::Program prog = b.build();

  const PluginRun r =
      runWithSchedule(prog, {0, 0, 1, 1, 0, 0, 1}, {"x", "y"});
  EXPECT_EQ(r.atom->openRegions(), 1u);
  EXPECT_EQ(r.atom->regionCount(), 1u);
  const auto viol = r.atom->violations();
  ASSERT_EQ(viol.size(), 1u);
  EXPECT_EQ(viol[0].regionId, 3);
  EXPECT_NE(r.atom->report().text.find("open-regions=1"), std::string::npos);
}

TEST(Atomicity, PluginCheckpointRoundTrip) {
  const program::Program prog = corpus::atomicityDemo();
  const PluginRun r = runWithSchedule(
      prog, corpus::atomicityDemoViolatingSchedule(), {"acct", "audit"});

  observer::ckpt::Writer w;
  r.atom->checkpoint(w);
  const std::vector<std::uint8_t> blob = w.take();
  observer::ckpt::Reader rd(blob);
  AtomicityAnalysis fresh(&prog.vars);
  ASSERT_TRUE(fresh.restore(rd));
  EXPECT_EQ(fresh.report().text, r.atom->report().text);
  ASSERT_EQ(fresh.violations().size(), 1u);
  EXPECT_EQ(fresh.violations()[0].cycle, r.atom->violations()[0].cycle);
}

// ===================================================================
// AnalyzerSession integration: daemon-side plugins, stream death,
// checkpoint/restore across an open region.
// ===================================================================

/// The demo trace's messages in delivered (fifo) order.
std::vector<trace::Message> demoMessages(const EngineResult& r) {
  std::vector<trace::Message> msgs;
  for (const auto& ref : r.causality.observedOrder()) {
    msgs.push_back(r.causality.message(ref));
  }
  return msgs;
}

AnalyzerSession::Config demoSessionConfig(const program::Program& prog,
                                          std::vector<std::string> analyses) {
  AnalyzerSession::Config cfg;
  cfg.threads = static_cast<std::uint32_t>(prog.threadCount());
  cfg.specs = {"acct <= 100"};
  cfg.handshakeSpecs = cfg.specs;
  cfg.tracked = {"acct", "audit"};
  cfg.vars = prog.vars;
  cfg.analyses = std::move(analyses);
  return cfg;
}

TEST(AtomicitySession, UnknownAnalysisNameThrows) {
  const program::Program prog = corpus::atomicityDemo();
  EXPECT_THROW(AnalyzerSession(demoSessionConfig(prog, {"bogus"})),
               std::runtime_error);
}

TEST(AtomicitySession, ReportRendersAtIncompleteStreamDeath) {
  const program::Program prog = corpus::atomicityDemo();
  const PluginRun base = runWithSchedule(
      prog, corpus::atomicityDemoViolatingSchedule(), {"acct", "audit"});
  const std::vector<trace::Message> msgs = demoMessages(base.result);

  // Feed only a prefix that leaves the checker's region OPEN, then "lose"
  // the client: no end-of-trace ever arrives.  The atomicity report must
  // still render (recomputed from the buffered log) with the open region
  // counted.
  std::size_t cut = 0;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (msgs[i].event.kind == trace::EventKind::kRegionBegin) cut = i + 2;
  }
  ASSERT_GT(cut, 0u);
  ASSERT_LT(cut, msgs.size());

  AnalyzerSession session(demoSessionConfig(prog, {"atomicity"}));
  const char* err = nullptr;
  for (std::size_t i = 0; i < cut; ++i) {
    ASSERT_NE(session.ingest(msgs[i], &err), AnalyzerSession::Ingest::kError)
        << err;
  }
  ASSERT_FALSE(session.finished());
  const auto reports = session.analysisReports();
  ASSERT_EQ(reports.size(), 2u);  // spec plugin + atomicity
  const observer::AnalysisReport& atom = reports.back();
  EXPECT_EQ(atom.kind, "atomicity");
  EXPECT_NE(atom.text.find("open-regions=1"), std::string::npos) << atom.text;
}

TEST(AtomicitySession, CheckpointRestoreSpansOpenRegion) {
  const program::Program prog = corpus::atomicityDemo();
  const PluginRun base = runWithSchedule(
      prog, corpus::atomicityDemoViolatingSchedule(), {"acct", "audit"});
  const std::vector<trace::Message> msgs = demoMessages(base.result);

  // Uninterrupted reference: both daemon-side plugins active.
  AnalyzerSession ref(demoSessionConfig(prog, {"atomicity", "mhp"}));
  const char* err = nullptr;
  for (const auto& m : msgs) {
    ASSERT_NE(ref.ingest(m, &err), AnalyzerSession::Ingest::kError) << err;
  }
  ref.noteStreamEnd();
  ASSERT_TRUE(ref.finished()) << ref.streamError();
  const std::string want = renderAnalysisReports(ref.analysisReports());
  EXPECT_NE(want.find("violations=1"), std::string::npos) << want;

  // Same walk, but the session is torn down and rebuilt from its own
  // checkpoint blob after EVERY message — including the ones landing
  // inside the still-open region.
  auto live = std::make_unique<AnalyzerSession>(
      demoSessionConfig(prog, {"atomicity", "mhp"}));
  for (const auto& m : msgs) {
    ASSERT_NE(live->ingest(m, &err), AnalyzerSession::Ingest::kError) << err;
    observer::ckpt::Writer w;
    live->checkpoint(w);
    const std::vector<std::uint8_t> blob = w.take();
    observer::ckpt::Reader r(blob);
    auto restored = AnalyzerSession::restore(r);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->config().analyses, live->config().analyses);
    live = std::move(restored);
  }
  live->noteStreamEnd();
  ASSERT_TRUE(live->finished()) << live->streamError();
  EXPECT_EQ(renderAnalysisReports(live->analysisReports()), want);
}

// ===================================================================
// Budget degradation: the lattice may shed runs, but the atomicity
// verdict is message-fed — its violations must stay exactly the
// oracle-confirmed set on every BOUNDED run.
// ===================================================================

TEST(Atomicity, BudgetDegradedRunsStayOracleConfirmed) {
  std::size_t accepted = 0;
  std::size_t boundedRuns = 0;
  for (std::uint64_t seed = 1; accepted < 40 && seed < 4000; ++seed) {
    const auto c = mpx::testing::generateAtomicityCase(seed);
    EngineConfig ec;
    ec.specs = {c.spec};
    ec.deliverySeed = c.shuffleSeed;
    ec.lattice.maxViolations = std::size_t{1} << 20;
    ec.lattice.maxFrontier = 1;  // harshest frontier budget
    const Engine engine(c.program, ec);
    AtomicityAnalysis atom(&c.program.vars);
    const EngineResult r = engine.runWithSeed(c.scheduleSeed, {&atom});

    const mpx::testing::AtomicityOracle oracle(r.causality);
    if (!oracle.result().feasible) continue;
    ++accepted;
    if (r.latticeStats.bounded()) ++boundedRuns;

    std::set<std::pair<ThreadId, std::size_t>> got;
    for (const auto& v : atom.violations()) got.emplace(v.thread, v.ordinal);
    EXPECT_EQ(got, oracle.result().violations) << "seed " << seed;
  }
  ASSERT_GE(accepted, 40u);
  ASSERT_GT(boundedRuns, 0u);  // the budget must actually have bitten
}

// ===================================================================
// MhpPrefilter
// ===================================================================

TEST(MhpPrefilter, LockDisciplinedPairsAndRaceFreeVars) {
  const program::Program prog = corpus::lockDisciplined(3, 2, 2);
  EngineConfig ec;
  ec.extraTrackedVars = {"data", "aux0", "aux1"};
  const Engine engine(prog, ec);
  MhpPrefilter mhp(&prog.vars);
  const EngineResult r = engine.runWithSeed(7, {&mhp});
  (void)r;

  // Every access holds the one global lock, so every tracked pair is
  // clock-certified never-concurrent...
  const auto pairs = mhp.neverConcurrentPairs();
  EXPECT_EQ(pairs.size(), 3u) << "expected all 3 pairs of 3 variables";
  for (const auto& [lo, hi] : pairs) EXPECT_LT(lo, hi);

  // ...and every variable is lockset-certified race-free.
  const auto raceFree = mhp.raceFreeVars();
  std::set<VarId> rf(raceFree.begin(), raceFree.end());
  EXPECT_TRUE(rf.count(prog.vars.id("data")));
  EXPECT_TRUE(rf.count(prog.vars.id("aux0")));

  const observer::AnalysisReport rep = mhp.report();
  EXPECT_EQ(rep.kind, "mhp");
  EXPECT_NE(rep.text.find("never-concurrent-pairs=3"), std::string::npos)
      << rep.text;
}

TEST(MhpPrefilter, RacyVariableIsNeitherOrderedNorRaceFree) {
  // x is lock-protected in both threads; y is written bare by both.
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  const VarId y = b.var("y", 0);
  const LockId l = b.lock("L");
  for (int i = 0; i < 2; ++i) {
    auto t = b.thread("t" + std::to_string(i));
    t.lockAcquire(l);
    t.write(x, lit(i + 1));
    t.lockRelease(l);
    t.write(y, lit(i + 1));
  }
  const program::Program prog = b.build();
  (void)x;
  (void)y;

  // Interleave the bare y writes so they are genuinely concurrent.
  const PluginRun r =
      runWithSchedule(prog, {0, 0, 0, 1, 1, 1, 0, 1, 0, 1}, {"x", "y"});

  const auto raceFree = r.mhp->raceFreeVars();
  const std::set<VarId> rf(raceFree.begin(), raceFree.end());
  EXPECT_TRUE(rf.count(prog.vars.id("x")));   // common lock
  EXPECT_FALSE(rf.count(prog.vars.id("y")));  // bare cross-thread writes

  // (x, y) must NOT be classified never-concurrent: the bare y writes are
  // unordered against x's critical sections.
  const auto xy = std::minmax(prog.vars.id("x"), prog.vars.id("y"));
  for (const auto& p : r.mhp->neverConcurrentPairs()) {
    EXPECT_NE(p, std::make_pair(xy.first, xy.second));
  }
}

TEST(MhpPrefilter, SuppressesRaceReportsOnCertifiedVars) {
  // The native-mutex integration shape: locks are REPORTED in each raw
  // event's lockset but the lock operations themselves are not
  // instrumented as events.  The race detector's causality then cannot
  // order the two x critical sections (no lock joins), so x becomes an
  // HB race candidate — but the lockset census still certifies x
  // race-free (one common lock over every access), and the suppression
  // hook removes the report.  The bare y race must survive.
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  const VarId y = b.var("y", 0);
  (void)b.lock("L");
  const program::Program prog = b.build();

  MhpPrefilter mhp(&prog.vars);
  detect::RaceAnalysis race(prog, {"x", "y"});
  // The prefilter precedes RaceAnalysis on the bus, so its census is
  // complete when the suppression source is consulted in finish().
  race.setSuppressionSource([&mhp] { return mhp.raceFreeVars(); });

  const auto feed = [&](ThreadId t, VarId var, LocalSeq k, GlobalSeq g,
                        const std::vector<LockId>& locks) {
    trace::Event e;
    e.kind = trace::EventKind::kWrite;
    e.thread = t;
    e.var = var;
    e.value = 1;
    e.localSeq = k;
    e.globalSeq = g;
    mhp.onRawEvent(e, locks);
    race.onRawEvent(e, locks);
  };
  feed(0, x, 1, 1, {0});
  feed(1, x, 1, 2, {0});
  feed(0, y, 2, 3, {});
  feed(1, y, 2, 4, {});

  const observer::LatticeStats stats;
  mhp.finish(stats);
  race.finish(stats);

  // The bare y race survives; the certified x candidate is suppressed.
  ASSERT_EQ(race.races().size(), 1u);
  EXPECT_EQ(race.races()[0].var, y);
  EXPECT_NE(race.report().text.find("mhp-suppressed: 1"), std::string::npos)
      << race.report().text;
}

TEST(MhpPrefilter, ClassifyNeverConcurrentStatic) {
  const auto msg = [](ThreadId t, VarId var, LocalSeq k,
                      std::vector<std::uint64_t> clock) {
    trace::Message m;
    m.event.kind = trace::EventKind::kWrite;
    m.event.thread = t;
    m.event.var = var;
    m.event.localSeq = k;
    m.event.globalSeq = clock[0] + clock[1];
    vc::VectorClock vc(clock.size());
    for (std::size_t i = 0; i < clock.size(); ++i) {
      vc.set(static_cast<ThreadId>(i), clock[i]);
    }
    m.clock = std::move(vc);
    return m;
  };

  // var 0 @ T0 with clock (1,0); var 1 @ T1 with clock (1,1): the second
  // access has seen the first -> ordered -> never-concurrent.
  EXPECT_EQ(MhpPrefilter::classifyNeverConcurrent(
                {msg(0, 0, 1, {1, 0}), msg(1, 1, 1, {1, 1})}),
            (std::vector<std::pair<VarId, VarId>>{{0, 1}}));

  // var 0 @ T0 with clock (1,0); var 1 @ T1 with clock (0,1): neither saw
  // the other -> concurrent -> no pair.
  EXPECT_TRUE(MhpPrefilter::classifyNeverConcurrent(
                  {msg(0, 0, 1, {1, 0}), msg(1, 1, 1, {0, 1})})
                  .empty());

  // Same-thread accesses are ordered by program order regardless of the
  // other components.
  EXPECT_EQ(MhpPrefilter::classifyNeverConcurrent(
                {msg(0, 0, 1, {1, 0}), msg(0, 1, 2, {2, 0})}),
            (std::vector<std::pair<VarId, VarId>>{{0, 1}}));
}

TEST(MhpPrefilter, PluginCheckpointRoundTrip) {
  const program::Program prog = corpus::lockDisciplined(2, 1, 1);
  EngineConfig ec;
  ec.extraTrackedVars = {"data", "aux0"};
  const Engine engine(prog, ec);
  MhpPrefilter mhp(&prog.vars);
  (void)engine.runWithSeed(3, {&mhp});

  observer::ckpt::Writer w;
  mhp.checkpoint(w);
  const std::vector<std::uint8_t> blob = w.take();
  observer::ckpt::Reader rd(blob);
  MhpPrefilter fresh(&prog.vars);
  ASSERT_TRUE(fresh.restore(rd));
  EXPECT_EQ(fresh.neverConcurrentPairs(), mhp.neverConcurrentPairs());
  EXPECT_EQ(fresh.raceFreeVars(), mhp.raceFreeVars());
  EXPECT_EQ(fresh.report().text, mhp.report().text);
}

}  // namespace
}  // namespace mpx::analysis
