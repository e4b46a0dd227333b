// Differential testing: the three independent checking engines — the batch
// lattice, the online incremental analyzer, and explicit run enumeration —
// must agree on every verdict, for random programs, random schedules,
// random arrival orders, and both monitor families.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>

#include "../support/trace_gen.hpp"
#include "analysis/atomicity_analysis.hpp"
#include "analysis/engine.hpp"
#include "analysis/mhp_prefilter.hpp"
#include "analysis/session.hpp"
#include "analysis/predictive_analyzer.hpp"
#include "analysis/report.hpp"
#include "detect/deadlock_analysis.hpp"
#include "detect/race_analysis.hpp"
#include "logic/fsm.hpp"
#include "logic/parser.hpp"
#include "observer/online.hpp"
#include "observer/run_enumerator.hpp"
#include "program/corpus.hpp"

namespace mpx::analysis {
namespace {

namespace corpus = program::corpus;

struct Engines {
  bool lattice = false;
  bool online = false;
  bool enumeration = false;
  std::uint64_t latticeRuns = 0;
  std::uint64_t onlineRuns = 0;
  std::size_t enumeratedRuns = 0;
};

Engines runAllEngines(const program::Program& prog, const std::string& spec,
                      std::uint64_t scheduleSeed, std::uint64_t shuffleSeed) {
  PredictiveAnalyzer analyzer(prog, specConfig(spec));
  const AnalysisResult r = analyzer.analyzeWithSeed(scheduleSeed);

  Engines out;
  out.lattice = r.predictsViolation();
  out.latticeRuns = r.latticeStats.pathCount;

  // Online, with shuffled arrival.
  std::vector<trace::Message> msgs;
  for (const auto& ref : r.causality.observedOrder()) {
    msgs.push_back(r.causality.message(ref));
  }
  std::mt19937_64 rng(shuffleSeed);
  std::shuffle(msgs.begin(), msgs.end(), rng);
  logic::SynthesizedMonitor onlineMon(analyzer.formula());
  observer::OnlineAnalyzer online(r.space, prog.threadCount(), &onlineMon);
  for (const auto& m : msgs) online.onMessage(m);
  online.endOfTrace();
  out.online = !online.violations().empty();
  out.onlineRuns = online.stats().pathCount;

  // Explicit enumeration.
  observer::RunEnumerator runs(r.causality, r.space);
  logic::SynthesizedMonitor enumMon(analyzer.formula());
  bool anyBad = false;
  out.enumeratedRuns = runs.forEachRun([&](const observer::Run& run) {
    if (enumMon.firstViolation(run.states) >= 0) anyBad = true;
    return true;
  });
  out.enumeration = anyBad;
  return out;
}

struct DiffCase {
  std::uint64_t programSeed;
  std::uint64_t scheduleSeed;
  bool locks;
};

/// The case's label, e.g. "p63s3L"; gtest_discover_tests names the ctest
/// test after it, so it must not depend on the struct's padding bytes.
void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << 'p' << c.programSeed << 's' << c.scheduleSeed << (c.locks ? "L" : "");
}

class TripleAgreement : public ::testing::TestWithParam<DiffCase> {};

TEST_P(TripleAgreement, AllEnginesAgree) {
  const DiffCase c = GetParam();
  corpus::RandomProgramOptions opts;
  opts.threads = 3;
  opts.vars = 2;
  opts.opsPerThread = 5;
  opts.locks = c.locks ? 1 : 0;
  const program::Program prog = corpus::randomProgram(c.programSeed, opts);
  const Engines e = runAllEngines(prog, "historically g0 <= g1 + 5",
                                  c.scheduleSeed, c.programSeed * 7 + 3);
  EXPECT_EQ(e.lattice, e.online);
  EXPECT_EQ(e.lattice, e.enumeration);
  EXPECT_EQ(e.latticeRuns, e.onlineRuns);
  EXPECT_EQ(e.latticeRuns, e.enumeratedRuns);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TripleAgreement,
    ::testing::Values(DiffCase{61, 1, false}, DiffCase{62, 2, false},
                      DiffCase{63, 3, true}, DiffCase{64, 4, true},
                      DiffCase{65, 5, false}, DiffCase{66, 6, true},
                      DiffCase{67, 7, false}, DiffCase{68, 8, true}));

TEST(TripleAgreementCanonical, LandingAndXyz) {
  {
    const Engines e = runAllEngines(corpus::landingController(),
                                    corpus::landingProperty(), 12345, 6);
    EXPECT_EQ(e.lattice, e.online);
    EXPECT_EQ(e.lattice, e.enumeration);
  }
  {
    const Engines e =
        runAllEngines(corpus::xyzProgram(), corpus::xyzProperty(), 777, 8);
    EXPECT_EQ(e.lattice, e.online);
    EXPECT_EQ(e.lattice, e.enumeration);
  }
}

TEST(TripleAgreementCanonical, SyncHeavyPrograms) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Engines e = runAllEngines(corpus::producerConsumer(2),
                                    "consumed <= 2", seed, seed + 1);
    EXPECT_FALSE(e.lattice) << "seed " << seed;
    EXPECT_EQ(e.lattice, e.online);
    EXPECT_EQ(e.lattice, e.enumeration);
  }
}

// ===================================================================
// Oracle differential sweep: the one-pass Engine against the naive
// Definition-level brute-force oracle of tests/support/trace_gen.hpp.
// ===================================================================

/// One engine configuration of the differential matrix.
struct RunCfg {
  trace::DeliveryPolicy delivery = trace::DeliveryPolicy::kFifo;
  std::size_t maxFrontier = 0;
  std::size_t memoryBudget = 0;
};

EngineResult runEngineCase(const mpx::testing::GeneratedCase& c,
                           const RunCfg& cfg) {
  EngineConfig ec;
  ec.specs = {c.spec};
  ec.delivery = cfg.delivery;
  ec.deliverySeed = c.shuffleSeed;
  // The sweep compares full violation SETS — never let the witness cap
  // truncate them.
  ec.lattice.maxViolations = std::size_t{1} << 20;
  ec.lattice.maxFrontier = cfg.maxFrontier;
  ec.lattice.memoryBudgetBytes = cfg.memoryBudget;
  const Engine engine(c.program, ec);
  return engine.runWithSeed(c.scheduleSeed);
}

std::set<std::string> violatingCuts(const EngineResult& r) {
  std::set<std::string> cuts;
  for (const auto& v : r.specs.at(0).violations) cuts.insert(v.cut.toString());
  return cuts;
}

/// Runs the oracle for an already-run base case; nullopt when the seed is
/// infeasible (too many events or runs) and must be skipped.
std::optional<mpx::testing::OracleResult> oracleFor(
    const mpx::testing::GeneratedCase& c, const EngineResult& base) {
  const logic::Formula f = logic::SpecParser(base.space).parse(c.spec);
  const mpx::testing::BruteForceOracle oracle(base.causality, base.space, f);
  if (!oracle.result().feasible) return std::nullopt;
  return oracle.result();
}

/// ≥500 accepted seeds: the engine's violating-cut set, level count, node
/// census, peak width and run count must all equal the oracle's, and the
/// rendered report must be byte-identical across fifo and shuffled
/// delivery.
TEST(OracleDifferential, FiveHundredSeedSweep) {
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; accepted < 500 && seed < 20000; ++seed) {
    const auto c = mpx::testing::generateCase(seed);
    const EngineResult base = runEngineCase(c, {});
    const auto oracle = oracleFor(c, base);
    if (!oracle) continue;
    ++accepted;

    ASSERT_EQ(violatingCuts(base), oracle->violatingCuts) << "seed " << seed;
    ASSERT_EQ(base.latticeStats.levels, oracle->levels) << "seed " << seed;
    ASSERT_EQ(base.latticeStats.totalNodes, oracle->consistentCuts)
        << "seed " << seed;
    ASSERT_EQ(base.latticeStats.peakLevelWidth, oracle->peakLevelWidth())
        << "seed " << seed;
    ASSERT_FALSE(base.latticeStats.pathCountSaturated) << "seed " << seed;
    ASSERT_EQ(base.latticeStats.pathCount, oracle->runCount)
        << "seed " << seed;
    ASSERT_FALSE(base.latticeStats.bounded()) << "seed " << seed;

    // Cross-delivery determinism: byte-identical reports and accounting.
    const EngineResult r =
        runEngineCase(c, {trace::DeliveryPolicy::kShuffle, 0, 0});
    ASSERT_EQ(renderAnalysisReports(r.reports),
              renderAnalysisReports(base.reports))
        << "seed " << seed;
    ASSERT_EQ(r.latticeStats.accountedBytes, base.latticeStats.accountedBytes)
        << "seed " << seed;
    ASSERT_EQ(r.latticeStats.peakAccountedBytes,
              base.latticeStats.peakAccountedBytes)
        << "seed " << seed;
  }
  ASSERT_GE(accepted, 500u);
}

/// Budget-ladder runs: under ANY finite budget the engine's violations stay
/// a SUBSET of the oracle's (never a superset — shed runs only lose
/// exhaustiveness), and the report is stamped BOUNDED exactly when runs
/// were shed.
TEST(OracleDifferential, BoundedRunsAreSoundSubsets) {
  std::size_t accepted = 0;
  std::size_t degradedRuns = 0;
  for (std::uint64_t seed = 1; accepted < 500 && seed < 20000; ++seed) {
    const auto c = mpx::testing::generateCase(seed);
    const EngineResult base = runEngineCase(c, {});
    const auto oracle = oracleFor(c, base);
    if (!oracle) continue;
    ++accepted;

    const std::size_t ladders[][2] = {
        {1, 0}, {2, 0}, {0, 2048},  // {maxFrontier, memoryBudgetBytes}
    };
    for (const auto& lad : ladders) {
      const EngineResult r =
          runEngineCase(c, {trace::DeliveryPolicy::kFifo, lad[0], lad[1]});
      const std::set<std::string> cuts = violatingCuts(r);

      // Soundness: BOUNDED violations ⊆ oracle, never a superset.
      ASSERT_TRUE(std::includes(oracle->violatingCuts.begin(),
                                oracle->violatingCuts.end(), cuts.begin(),
                                cuts.end()))
          << "seed " << seed << " mf " << lad[0] << " mb " << lad[1];

      // The verdict stamp tells the truth about exhaustiveness.
      const std::string report = renderViolationReport(
          r.space, r.violations, r.latticeStats, true);
      if (r.latticeStats.bounded()) {
        ASSERT_NE(report.find("verdict: BOUNDED("), std::string::npos)
            << report;
        ASSERT_NE(r.latticeStats.degradation,
                  observer::DegradationMode::kFull);
        ASSERT_NE(r.latticeStats.boundReason, observer::BoundReason::kNone);
        ASSERT_GT(r.latticeStats.droppedNodes, 0u);
        ASSERT_GE(r.latticeStats.degradedAtLevel, 1u);
        ++degradedRuns;
      } else {
        ASSERT_NE(report.find("verdict: SOUND"), std::string::npos)
            << report;
        ASSERT_EQ(cuts, oracle->violatingCuts) << "seed " << seed;
      }
    }
  }
  ASSERT_GE(accepted, 500u);
  // The matrix must actually exercise the ladder, not just pass vacuously.
  ASSERT_GT(degradedRuns, 100u);
}

/// Budget-ladder determinism across DELIVERY orders: the sampler's rank is
/// a pure function of (seed, level, cut), so shuffled arrival must shed the
/// exact same nodes as fifo.
TEST(OracleDifferential, BoundedRunsDeterministicAcrossDelivery) {
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; accepted < 120 && seed < 20000; ++seed) {
    const auto c = mpx::testing::generateCase(seed);
    const EngineResult base = runEngineCase(c, {});
    if (!oracleFor(c, base)) continue;
    ++accepted;

    const RunCfg fifo{trace::DeliveryPolicy::kFifo, 2, 0};
    const RunCfg shuf{trace::DeliveryPolicy::kShuffle, 2, 0};
    const EngineResult a = runEngineCase(c, fifo);
    const EngineResult b = runEngineCase(c, shuf);
    ASSERT_EQ(violatingCuts(a), violatingCuts(b)) << "seed " << seed;
    ASSERT_EQ(a.latticeStats.droppedNodes, b.latticeStats.droppedNodes)
        << "seed " << seed;
    ASSERT_EQ(a.latticeStats.degradation, b.latticeStats.degradation)
        << "seed " << seed;
    ASSERT_EQ(renderAnalysisReports(a.reports),
              renderAnalysisReports(b.reports))
        << "seed " << seed;
  }
  ASSERT_GE(accepted, 120u);
}

/// Race/deadlock differential: plugin reports are invariant across
/// delivery orders, lock-free programs never report deadlocks, and every
/// race report satisfies the Definition-level invariants (same variable,
/// different threads, at least one write, MVC-concurrent).
TEST(OracleDifferential, RaceAndDeadlockReportsInvariant) {
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; accepted < 60 && seed < 2000; ++seed) {
    const auto c = mpx::testing::generateCase(seed);
    std::vector<std::string> varNames;
    for (std::size_t i = 0; i < c.options.vars; ++i) {
      varNames.push_back("g" + std::to_string(i));
    }
    ++accepted;

    EngineConfig ec;
    ec.specs = {c.spec};
    ec.lattice.maxViolations = std::size_t{1} << 20;

    std::string ref;
    std::size_t refRaces = 0;
    const trace::DeliveryPolicy deliveries[] = {
        trace::DeliveryPolicy::kFifo,
        trace::DeliveryPolicy::kShuffle,
    };
    for (std::size_t vi = 0; vi < 2; ++vi) {
      ec.delivery = deliveries[vi];
      ec.deliverySeed = c.shuffleSeed;
      const Engine engine(c.program, ec);
      detect::RaceAnalysis race(c.program, varNames, {});
      detect::DeadlockAnalysis deadlock(c.program);
      const EngineResult r =
          engine.runWithSeed(c.scheduleSeed, {&race, &deadlock});
      const std::string rendered = renderAnalysisReports(r.reports);
      if (vi == 0) {
        ref = rendered;
        refRaces = race.races().size();
      } else {
        ASSERT_EQ(rendered, ref) << "seed " << seed << " variant " << vi;
        ASSERT_EQ(race.races().size(), refRaces) << "seed " << seed;
      }

      if (c.options.locks == 0) {
        ASSERT_TRUE(deadlock.deadlocks().empty()) << "seed " << seed;
      }
      for (const detect::RaceReport& rep : race.races()) {
        ASSERT_EQ(rep.first.event.var, rep.second.event.var)
            << "seed " << seed;
        ASSERT_NE(rep.first.event.thread, rep.second.event.thread)
            << "seed " << seed;
        ASSERT_TRUE(trace::isWriteLike(rep.first.event.kind) ||
                    trace::isWriteLike(rep.second.event.kind))
            << "seed " << seed;
        ASSERT_TRUE(rep.first.concurrentWith(rep.second)) << "seed " << seed;
      }
    }
  }
  ASSERT_GE(accepted, 60u);
}

/// Checkpoint rung of the sweep: walking the trace message-by-message and
/// REPLACING the session with checkpoint()+restore() at every watermark
/// advance (plus once mid-level) must leave the final report byte-identical
/// to the uninterrupted session's — across fifo and shuffled arrival.  This is the restore-determinism contract the observer daemon's
/// epoch snapshots rely on, ground down to the sweep's seed set.
TEST(OracleDifferential, CheckpointRestoreRoundTripsMidSweep) {
  std::size_t accepted = 0;
  std::size_t roundTrips = 0;
  for (std::uint64_t seed = 1; accepted < 500 && seed < 20000; ++seed) {
    const auto c = mpx::testing::generateCase(seed);
    const EngineResult base = runEngineCase(c, {});
    if (!oracleFor(c, base)) continue;
    ++accepted;

    std::vector<trace::Message> fifo;
    for (const auto& ref : base.causality.observedOrder()) {
      fifo.push_back(base.causality.message(ref));
    }

    for (const bool shuffled : {false, true}) {
      std::vector<trace::Message> msgs = fifo;
      if (shuffled) {
        std::mt19937_64 rng(c.shuffleSeed);
        std::shuffle(msgs.begin(), msgs.end(), rng);
      }

      AnalyzerSession::Config cfg;
      cfg.threads = static_cast<std::uint32_t>(base.causality.threadCount());
      cfg.specs = {c.spec};
      cfg.handshakeSpecs = cfg.specs;
      for (std::size_t i = 0; i < c.options.vars; ++i) {
        cfg.tracked.push_back("g" + std::to_string(i));
      }
      cfg.vars = c.program.vars;
      cfg.lattice.maxViolations = std::size_t{1} << 20;

      // Uninterrupted reference session.
      AnalyzerSession ref(cfg);
      const char* err = nullptr;
      for (const auto& m : msgs) {
        ASSERT_NE(ref.ingest(m, &err), AnalyzerSession::Ingest::kError)
            << "seed " << seed << ": " << err;
      }
      ref.noteStreamEnd();
      ASSERT_TRUE(ref.finished()) << ref.streamError();
      const std::string want = ref.renderReport();

      // The same walk, but the session object is torn down and rebuilt
      // from its own checkpoint blob mid-flight.
      auto live = std::make_unique<AnalyzerSession>(cfg);
      std::uint64_t lastLevel = live->watermarkLevel();
      std::size_t fed = 0;
      for (const auto& m : msgs) {
        ASSERT_NE(live->ingest(m, &err), AnalyzerSession::Ingest::kError)
            << "seed " << seed << ": " << err;
        ++fed;
        const bool levelAdvanced = live->watermarkLevel() > lastLevel;
        if (levelAdvanced || fed == msgs.size() / 2) {
          lastLevel = live->watermarkLevel();
          observer::ckpt::Writer w;
          live->checkpoint(w);
          const std::vector<std::uint8_t> blob = w.take();
          observer::ckpt::Reader r(blob);
          auto restored = AnalyzerSession::restore(r);
          ASSERT_NE(restored, nullptr) << "seed " << seed;
          ASSERT_EQ(restored->watermarkLevel(), live->watermarkLevel())
              << "seed " << seed;
          ASSERT_EQ(restored->pendingMessages(), live->pendingMessages())
              << "seed " << seed;
          ASSERT_EQ(restored->violations().size(),
                    live->violations().size())
              << "seed " << seed;
          ASSERT_EQ(restored->restoreCount(), live->restoreCount() + 1)
              << "seed " << seed;
          live = std::move(restored);
          ++roundTrips;
        }
      }
      live->noteStreamEnd();
      ASSERT_TRUE(live->finished()) << live->streamError();
      ASSERT_EQ(live->renderReport(), want)
          << "seed " << seed << (shuffled ? " shuffled" : " fifo");
    }
  }
  ASSERT_GE(accepted, 500u);
  // The rung must actually round-trip, not pass vacuously.
  ASSERT_GT(roundTrips, 1000u);
}

/// Online-vs-batch budget parity: the online analyzer fed SHUFFLED messages
/// must shed the exact same nodes as the batch lattice — the level index
/// passed to the sampler and the byte accounting line up exactly.
TEST(OracleDifferential, OnlineMatchesBatchUnderBudget) {
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; accepted < 80 && seed < 2000; ++seed) {
    const auto c = mpx::testing::generateCase(seed);
    PredictiveAnalyzer analyzer(c.program, specConfig(c.spec));
    const AnalysisResult base = analyzer.analyzeWithSeed(c.scheduleSeed);
    ++accepted;

    for (const std::size_t maxFrontier : {std::size_t{1}, std::size_t{2}}) {
      observer::LatticeOptions opts;
      opts.maxViolations = std::size_t{1} << 20;
      opts.maxFrontier = maxFrontier;

      // Batch, fifo discovery order.
      observer::ComputationLattice lattice(base.causality, base.space, opts);
      logic::SynthesizedMonitor batchMon(analyzer.formula());
      std::vector<observer::Violation> batchViolations;
      const observer::LatticeStats batchStats =
          lattice.check(batchMon, batchViolations);

      // Online, shuffled arrival.
      std::vector<trace::Message> msgs;
      for (const auto& ref : base.causality.observedOrder()) {
        msgs.push_back(base.causality.message(ref));
      }
      std::mt19937_64 rng(c.shuffleSeed);
      std::shuffle(msgs.begin(), msgs.end(), rng);
      logic::SynthesizedMonitor onlineMon(analyzer.formula());
      // The graph's thread count, not the program's: a thread that emitted
      // no relevant event adds a cut component, which shifts the byte model
      // (the batch lattice only ever sees the graph's threads).
      observer::OnlineAnalyzer online(base.space,
                                      base.causality.threadCount(),
                                      &onlineMon, opts);
      for (const auto& m : msgs) online.onMessage(m);
      online.endOfTrace();

      std::set<std::string> batchCuts;
      for (const auto& v : batchViolations) batchCuts.insert(v.cut.toString());
      std::set<std::string> onlineCuts;
      for (const auto& v : online.violations()) {
        onlineCuts.insert(v.cut.toString());
      }
      ASSERT_EQ(batchCuts, onlineCuts) << "seed " << seed << " mf "
                                       << maxFrontier;
      ASSERT_EQ(batchStats.droppedNodes, online.stats().droppedNodes)
          << "seed " << seed << " mf " << maxFrontier;
      ASSERT_EQ(batchStats.degradation, online.stats().degradation)
          << "seed " << seed << " mf " << maxFrontier;
      ASSERT_EQ(batchStats.degradedAtLevel, online.stats().degradedAtLevel)
          << "seed " << seed << " mf " << maxFrontier;
      ASSERT_EQ(batchStats.accountedBytes, online.stats().accountedBytes)
          << "seed " << seed << " mf " << maxFrontier;
      ASSERT_EQ(batchStats.peakAccountedBytes,
                online.stats().peakAccountedBytes)
          << "seed " << seed << " mf " << maxFrontier;
    }
  }
  ASSERT_GE(accepted, 80u);
}

// ===================================================================
// ISSUE 10 rungs: atomicity against the serialization-census oracle,
// and the MHP prefilter against the exhaustive pair census.
// ===================================================================

/// Violating regions as a canonical (thread, ordinal) set.
std::set<std::pair<ThreadId, std::size_t>> regionSet(
    const AtomicityAnalysis& atom) {
  std::set<std::pair<ThreadId, std::size_t>> out;
  for (const auto& v : atom.violations()) out.emplace(v.thread, v.ordinal);
  return out;
}

/// ≥500 accepted region-annotated seeds: AtomicityAnalysis's violation set
/// must equal the brute-force oracle's (which itself cross-checks the
/// conflict-graph verdict against serialization-existence backtracking on
/// EVERY linearization), MhpPrefilter's never-concurrent pairs must be a
/// subset of the exhaustive census, and both plugins' reports must be
/// byte-identical across fifo and shuffled delivery.
TEST(OracleDifferential, AtomicityFiveHundredSeedSweep) {
  std::size_t accepted = 0;
  std::size_t violatingSeeds = 0;
  std::size_t regionsSeen = 0;
  for (std::uint64_t seed = 1; accepted < 500 && seed < 60000; ++seed) {
    const auto c = mpx::testing::generateAtomicityCase(seed);

    EngineConfig ec;
    ec.specs = {c.spec};
    ec.lattice.maxViolations = std::size_t{1} << 20;
    ec.deliverySeed = c.shuffleSeed;
    const Engine engine(c.program, ec);
    AtomicityAnalysis atom(&c.program.vars);
    MhpPrefilter mhp(&c.program.vars);
    const EngineResult base = engine.runWithSeed(c.scheduleSeed, {&mhp, &atom});

    mpx::testing::OracleOptions oopts;
    oopts.maxRuns = 4000;
    const mpx::testing::AtomicityOracle oracle(base.causality, oopts);
    if (!oracle.result().feasible) continue;
    ++accepted;

    // The oracle's own sanity invariants: every linearization of the
    // partial order yields the same violation set, and the conflict-graph
    // verdict always agreed with the serialization backtracking.
    ASSERT_TRUE(oracle.result().pathInvariant) << "seed " << seed;
    ASSERT_TRUE(oracle.result().crossCheckOk) << "seed " << seed;

    ASSERT_EQ(regionSet(atom), oracle.result().violations) << "seed " << seed;
    ASSERT_EQ(atom.regionCount(), oracle.result().regions) << "seed " << seed;
    regionsSeen += atom.regionCount();
    if (!atom.violations().empty()) ++violatingSeeds;

    // MHP pair classification ⊆ the exhaustive Definition-level census.
    const auto census =
        mpx::testing::exhaustiveNeverConcurrentPairs(base.causality);
    const std::set<std::pair<VarId, VarId>> censusSet(census.begin(),
                                                      census.end());
    for (const auto& p : mhp.neverConcurrentPairs()) {
      ASSERT_TRUE(censusSet.count(p))
          << "seed " << seed << " pair " << p.first << "," << p.second;
    }

    // Cross-delivery determinism: byte-identical plugin reports across
    // fifo and shuffled arrival (fresh plugin instances — they accumulate
    // message logs).
    EngineConfig shuffled = ec;
    shuffled.delivery = trace::DeliveryPolicy::kShuffle;
    const Engine sEngine(c.program, shuffled);
    AtomicityAnalysis sAtom(&c.program.vars);
    MhpPrefilter sMhp(&c.program.vars);
    const EngineResult r = sEngine.runWithSeed(c.scheduleSeed, {&sMhp, &sAtom});
    ASSERT_EQ(renderAnalysisReports(r.reports),
              renderAnalysisReports(base.reports))
        << "seed " << seed;
    ASSERT_EQ(regionSet(sAtom), oracle.result().violations) << "seed " << seed;
  }
  ASSERT_GE(accepted, 500u);
  // The rung must exercise real regions and real violations, not pass
  // vacuously on region-free traces.
  ASSERT_GT(regionsSeen, 500u);
  ASSERT_GE(violatingSeeds, 10u);
}

/// Prefilter on/off equivalence over the sweep: with the suffix variable
/// g2 tracked beyond the spec (g0/g1), the prefilter-on engine must render
/// byte-identical reports and identical violating cuts, while expanding at
/// most as many union variables — and strictly fewer on at least a few
/// seeds (the speed win the tentpole claims).
TEST(OracleDifferential, MhpPrefilterByteIdenticalReports) {
  std::size_t accepted = 0;
  std::size_t prunedRuns = 0;
  for (std::uint64_t seed = 1; accepted < 500 && seed < 20000; ++seed) {
    auto c = mpx::testing::generateCase(seed);
    c.options.vars = 3;  // g2: tracked below, never referenced by the spec
    c.program = corpus::randomProgram(seed, c.options);

    EngineConfig off;
    off.specs = {c.spec};
    off.extraTrackedVars = {"g2"};
    off.lattice.maxViolations = std::size_t{1} << 20;
    off.deliverySeed = c.shuffleSeed;
    EngineConfig on = off;
    on.mhpPrefilter = true;

    const Engine offEngine(c.program, off);
    const EngineResult offR = offEngine.runWithSeed(c.scheduleSeed);
    const auto oracle = oracleFor(c, offR);
    if (!oracle) continue;
    ++accepted;

    const Engine onEngine(c.program, on);
    const EngineResult onR = onEngine.runWithSeed(c.scheduleSeed);

    ASSERT_EQ(renderAnalysisReports(onR.reports),
              renderAnalysisReports(offR.reports))
        << "seed " << seed;
    ASSERT_EQ(violatingCuts(onR), violatingCuts(offR)) << "seed " << seed;
    ASSERT_EQ(violatingCuts(onR), oracle->violatingCuts) << "seed " << seed;
    ASSERT_EQ(onR.latticeStats.totalNodes, offR.latticeStats.totalNodes)
        << "seed " << seed;
    ASSERT_LE(onR.unionVarsExpanded, onR.space.size()) << "seed " << seed;
    if (onR.unionVarsExpanded < onR.space.size()) ++prunedRuns;
  }
  ASSERT_GE(accepted, 500u);
  // The prefilter must actually prune somewhere, or the rung is vacuous.
  ASSERT_GT(prunedRuns, 0u);
}

/// Deterministic pruning witness (the acceptance criterion's "strictly
/// fewer expanded union variables on ≥1 corpus trace"): every access in
/// lockDisciplined holds one global lock, so the whole aux suffix is
/// never-concurrent with `data` and must be pruned — with the report still
/// byte-identical to the unpruned pass.
TEST(OracleDifferential, MhpPrefilterPrunesLockDisciplinedCorpus) {
  const program::Program prog = corpus::lockDisciplined(3, 2, 4);
  EngineConfig off;
  off.specs = {"data >= 0"};
  off.extraTrackedVars = {"aux0", "aux1", "aux2", "aux3"};
  off.lattice.maxViolations = std::size_t{1} << 20;
  EngineConfig on = off;
  on.mhpPrefilter = true;

  const Engine offEngine(prog, off);
  const Engine onEngine(prog, on);
  const EngineResult offR = offEngine.runWithSeed(1);
  const EngineResult onR = onEngine.runWithSeed(1);

  EXPECT_EQ(offR.unionVarsExpanded, offR.space.size());
  ASSERT_EQ(onR.space.size(), 5u);
  EXPECT_EQ(onR.unionVarsExpanded, 1u);  // data only; aux0..aux3 pruned
  EXPECT_EQ(onR.prunedVars,
            (std::vector<std::string>{"aux0", "aux1", "aux2", "aux3"}));
  EXPECT_EQ(renderAnalysisReports(onR.reports),
            renderAnalysisReports(offR.reports));
  EXPECT_EQ(violatingCuts(onR), violatingCuts(offR));
}

}  // namespace
}  // namespace mpx::analysis
