// Prediction soundness on RANDOM programs: everything the lattice predicts
// is a consistent run that genuinely violates; under the sequential memory
// model, every predicted violating run is realizable by some actual
// schedule (checked against the exhaustive explorer on small programs).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/predictive_analyzer.hpp"
#include "observer/run_enumerator.hpp"
#include "program/corpus.hpp"
#include "program/explorer.hpp"

namespace mpx::analysis {
namespace {

namespace corpus = program::corpus;

struct SoundnessCase {
  std::uint64_t programSeed;
  std::uint64_t scheduleSeed;
  bool locks;
};

class PredictionSoundness : public ::testing::TestWithParam<SoundnessCase> {
 protected:
  static corpus::RandomProgramOptions programOptions(bool locks) {
    corpus::RandomProgramOptions opts;
    opts.threads = 2;
    opts.vars = 2;
    opts.opsPerThread = 4;
    opts.locks = locks ? 1 : 0;
    return opts;
  }

  // An arbitrary safety property over the two shared variables: "g0 never
  // exceeds g1 + 3 after once being equal to g1".  Contrived, but it has
  // real temporal structure and both variables.
  static const char* spec() { return "once(g0 = g1) -> g0 <= g1 + 3"; }
};

TEST_P(PredictionSoundness, PredictedCounterexamplesVerify) {
  const SoundnessCase c = GetParam();
  const program::Program prog =
      corpus::randomProgram(c.programSeed, programOptions(c.locks));
  AnalyzerConfig config;
  config.spec = spec();
  PredictiveAnalyzer analyzer(prog, config);
  const AnalysisResult r = analyzer.analyzeWithSeed(c.scheduleSeed);

  observer::RunEnumerator runs(r.causality, r.space);
  logic::SynthesizedMonitor monitor(analyzer.formula());
  for (const auto& v : r.predictedViolations) {
    ASSERT_TRUE(runs.isConsistentRun(v.path));
    EXPECT_GE(monitor.firstViolation(runs.statesAlong(v.path)), 0);
  }
}

TEST_P(PredictionSoundness, LatticeAgreesWithRunEnumeration) {
  const SoundnessCase c = GetParam();
  const program::Program prog =
      corpus::randomProgram(c.programSeed, programOptions(c.locks));
  AnalyzerConfig config;
  config.spec = spec();
  PredictiveAnalyzer analyzer(prog, config);
  const AnalysisResult r = analyzer.analyzeWithSeed(c.scheduleSeed);

  observer::RunEnumerator runs(r.causality, r.space);
  logic::SynthesizedMonitor monitor(analyzer.formula());
  bool someRunViolates = false;
  std::size_t runCount = 0;
  runs.forEachRun([&](const observer::Run& run) {
    ++runCount;
    if (monitor.firstViolation(run.states) >= 0) someRunViolates = true;
    return true;
  });
  EXPECT_EQ(r.predictsViolation(), someRunViolates);
  EXPECT_EQ(r.latticeStats.pathCount, runCount);
}

TEST_P(PredictionSoundness, PredictionsAreRealizableBySomeSchedule) {
  // Under sequential consistency, a predicted violating run corresponds to
  // a real schedule of the program: the exhaustive explorer must find one.
  // The sweep property is rarely violated by programs this small, so the
  // property here comes from the lattice itself.  Take a consistent run
  // whose state sequence leaves the observed one, and forbid its prefix up
  // to that point: the analyzer must predict the violation from the
  // observed run alone, and some schedule must realize it.  Where the
  // case's schedule admits only the observed state sequence, the next
  // schedule seeds are tried.  A program whose every tried schedule admits
  // only its observed sequence can predict nothing the observed run — a
  // real schedule — does not already show; that is checked instead.
  const SoundnessCase c = GetParam();
  const program::Program prog =
      corpus::randomProgram(c.programSeed, programOptions(c.locks));
  AnalyzerConfig config;
  config.spec = spec();
  std::uint64_t scheduleSeed = c.scheduleSeed;
  observer::StateSpace space;
  std::vector<observer::GlobalState> prefix;
  for (int attempt = 0; attempt < 8 && prefix.empty(); ++attempt) {
    scheduleSeed = c.scheduleSeed + 1000 * attempt;
    const AnalysisResult observed =
        PredictiveAnalyzer(prog, config).analyzeWithSeed(scheduleSeed);
    space = observed.space;
    observer::RunEnumerator runs(observed.causality, space);
    runs.forEachRun([&](const observer::Run& run) {
      for (std::size_t i = 0; i < run.states.size(); ++i) {
        if (run.states[i] != observed.observedStates.at(i)) {
          prefix.assign(run.states.begin(), run.states.begin() + i + 1);
          return false;
        }
      }
      return true;
    });
    if (prefix.empty()) {
      EXPECT_EQ(observed.predictsViolation(), observed.observedRunViolates());
    }
  }
  if (prefix.empty()) return;

  // "historically !(σ_i && prev (σ_i-1 && prev (... σ_0)))".
  std::string pattern;
  for (std::size_t i = prefix.size(); i-- > 0;) {
    std::string state;
    for (std::size_t slot = 0; slot < space.size(); ++slot) {
      if (slot > 0) state += " && ";
      state += space.name(slot) + " = " +
               std::to_string(prefix[i].values[slot]);
    }
    pattern += i + 1 == prefix.size() ? "(" + state : " && prev (" + state;
  }
  pattern += std::string(prefix.size(), ')');
  const std::string derived = "historically !" + pattern;
  config.spec = derived;
  const AnalysisResult r =
      PredictiveAnalyzer(prog, config).analyzeWithSeed(scheduleSeed);
  EXPECT_FALSE(r.observedRunViolates()) << derived;
  ASSERT_TRUE(r.predictsViolation()) << derived;

  const GroundTruthResult truth = groundTruth(prog, derived);
  EXPECT_GT(truth.violatingExecutions, 0u)
      << "prediction not realizable by any schedule: " << derived;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PredictionSoundness,
    ::testing::Values(SoundnessCase{11, 1, false}, SoundnessCase{12, 2, false},
                      SoundnessCase{13, 3, false}, SoundnessCase{14, 4, true},
                      SoundnessCase{15, 5, true}, SoundnessCase{16, 6, true},
                      SoundnessCase{17, 7, false}, SoundnessCase{18, 8, true},
                      SoundnessCase{19, 9, false},
                      SoundnessCase{20, 10, true}),
    [](const ::testing::TestParamInfo<SoundnessCase>& info) {
      return "p" + std::to_string(info.param.programSeed) + "s" +
             std::to_string(info.param.scheduleSeed) +
             (info.param.locks ? "L" : "");
    });

TEST(PredictionSoundnessAggregate, SomeRandomProgramPredictsAndIsRealizable) {
  // Hunt across seeds for a (program, schedule) where the analyzer
  // actually predicts a violation of a tighter property, then confirm the
  // exhaustive explorer can realize one.
  corpus::RandomProgramOptions opts;
  opts.threads = 2;
  opts.vars = 2;
  opts.opsPerThread = 4;
  const char* tightSpec = "historically g0 <= g1 + 4";
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 60 && !found; ++seed) {
    const program::Program prog = corpus::randomProgram(seed, opts);
    AnalyzerConfig config;
    config.spec = tightSpec;
    PredictiveAnalyzer analyzer(prog, config);
    const AnalysisResult r = analyzer.analyzeWithSeed(seed * 13 + 5);
    if (!r.predictsViolation()) continue;
    found = true;
    const GroundTruthResult truth = groundTruth(prog, tightSpec);
    EXPECT_GT(truth.violatingExecutions, 0u) << "seed " << seed;
  }
  EXPECT_TRUE(found) << "no random program predicted a violation — the "
                        "sweep lost its teeth";
}

TEST(PredictionPower, PredictiveBeatsObservedOnTheLandingBug) {
  // Claim C1: over many random schedules, the predictive analyzer detects
  // the landing bug far more often than the observed-run baseline.
  const program::Program prog = corpus::landingController(/*padding=*/3);
  const std::string spec = corpus::landingProperty();
  PredictiveAnalyzer analyzer(prog, specConfig(spec));
  ObservedRunChecker baseline(prog, spec);

  std::size_t observedDetects = 0;
  std::size_t predictedDetects = 0;
  const std::size_t kTrials = 60;
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    program::RandomScheduler s(seed);
    program::Executor ex(prog, s);
    const auto rec = ex.run();
    if (baseline.detectsOnRecord(rec)) ++observedDetects;
    if (analyzer.analyzeRecord(rec).predictsViolation()) ++predictedDetects;
  }
  EXPECT_GE(predictedDetects, observedDetects);
  EXPECT_GT(predictedDetects, observedDetects + kTrials / 10)
      << "prediction should be substantially stronger on this workload";
}

}  // namespace
}  // namespace mpx::analysis
