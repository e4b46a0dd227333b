// Paper Example 1 (Figs. 1 and 5): the flight controller.
//
// The observed execution is SUCCESSFUL: approval is granted, the plane
// starts landing, and only afterwards does the radio go down — the safety
// property "landing = 1 -> [approved = 1, radio = 0)" holds on that trace,
// so JPAX/Java-MaC-style observed-run monitors see nothing.
//
// JMPaX's (and MPX's) observer instead extracts the causal partial order
// from the three emitted messages, builds the 6-state computation lattice
// of Fig. 5, and finds the two OTHER runs — radio-off before approval, and
// radio-off between approval and landing — of which the latter violates
// the property.  This program prints the whole story.
#include <cstdio>

#include "analysis/predictive_analyzer.hpp"
#include "observer/run_enumerator.hpp"
#include "program/corpus.hpp"

int main() {
  using namespace mpx;
  namespace corpus = program::corpus;

  const program::Program prog = corpus::landingController();
  std::printf("=== Program (paper Fig. 1) ===\n%s\n",
              prog.disassemble().c_str());

  analysis::AnalyzerConfig config;
  config.spec = corpus::landingProperty();
  analysis::PredictiveAnalyzer analyzer(prog, config);

  std::printf("property: %s\n\n", config.spec.c_str());

  // The paper's observed (successful) execution.
  program::FixedScheduler sched(corpus::landingObservedSchedule());
  const analysis::AnalysisResult r = analyzer.analyze(sched);

  std::printf("=== Observed execution ===\n");
  std::printf("messages emitted to the observer: %llu\n",
              static_cast<unsigned long long>(r.messagesEmitted));
  std::printf("observed state sequence:");
  for (const auto& s : r.observedStates) std::printf(" %s", s.toString().c_str());
  std::printf("   (<landing,approved,radio>)\n");
  std::printf("observed run violates: %s  (a single-trace monitor reports nothing)\n\n",
              r.observedRunViolates() ? "YES" : "no");

  std::printf("=== Computation lattice (paper Fig. 5) ===\n");
  observer::ComputationLattice lattice(
      r.causality, r.space, {.retention = observer::Retention::kFull});
  lattice.build();
  std::printf("%s", lattice.render().c_str());
  std::printf("nodes: %zu, runs: %llu\n\n", lattice.stats().totalNodes,
              static_cast<unsigned long long>(lattice.stats().pathCount));

  std::printf("=== Runs and verdicts ===\n");
  observer::RunEnumerator runs(r.causality, r.space);
  std::size_t idx = 0;
  std::size_t violating = 0;
  logic::SynthesizedMonitor monitor(analyzer.formula());
  runs.forEachRun([&](const observer::Run& run) {
    const std::int64_t firstBad = monitor.firstViolation(run.states);
    std::printf("run %zu:", ++idx);
    for (const auto& s : run.states) std::printf(" %s", s.toString().c_str());
    std::printf("  -> %s\n", firstBad >= 0 ? "VIOLATES" : "ok");
    if (firstBad >= 0) ++violating;
    return true;
  });
  std::printf("%zu of %zu runs violate the property\n\n", violating, idx);

  std::printf("=== Predicted violations (with counterexamples) ===\n");
  for (const auto& v : r.predictedViolations) {
    std::printf("%s\n", r.describe(v).c_str());
  }

  const auto truth = analysis::groundTruth(prog, config.spec);
  std::printf(
      "ground truth: %zu of %zu schedules of the real program violate\n",
      truth.violatingExecutions, truth.totalExecutions);
  return 0;
}
