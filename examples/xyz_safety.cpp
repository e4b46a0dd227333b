// Paper Example 2 (Fig. 6): the x/y/z program.
//
//   initially x = -1, y = 0, z = 0
//   thread1:  x++; ...; y = x + 1;
//   thread2:  z = x + 1; ...; x++;
//   property: (x > 0) -> [y = 0, y > z)
//
// The observed execution passes through states
// (-1,0,0) (0,0,0) (0,0,1) (1,0,1) (1,1,1) and satisfies the property; the
// observer receives the four messages of Fig. 6, reconstructs the causal
// order, and the lattice contains three runs — the rightmost of which
// violates the property.  JPAX/Java-MaC fail here; MPX predicts the bug.
#include <cstdio>

#include "analysis/predictive_analyzer.hpp"
#include "observer/run_enumerator.hpp"
#include "program/corpus.hpp"
#include "trace/codec.hpp"

int main() {
  using namespace mpx;
  namespace corpus = program::corpus;

  const program::Program prog = corpus::xyzProgram();
  analysis::AnalyzerConfig config;
  config.spec = corpus::xyzProperty();
  analysis::PredictiveAnalyzer analyzer(prog, config);

  std::printf("property: %s\n\n", config.spec.c_str());

  program::FixedScheduler sched(corpus::xyzObservedSchedule());
  const analysis::AnalysisResult r = analyzer.analyze(sched);

  std::printf("=== Messages received by the observer (paper Fig. 6) ===\n");
  trace::TextCodec codec(prog.vars);
  for (const auto& ref : r.observedRun) {
    std::printf("  %s\n", codec.format(r.causality.message(ref)).c_str());
  }

  std::printf("\n=== Observed state sequence ===\n ");
  for (const auto& s : r.observedStates) {
    std::printf(" (x=%lld,y=%lld,z=%lld)", static_cast<long long>(s[0]),
                static_cast<long long>(s[1]), static_cast<long long>(s[2]));
  }
  std::printf("\nobserved run violates: %s\n\n",
              r.observedRunViolates() ? "YES" : "no");

  std::printf("=== Computation lattice (paper Fig. 6) ===\n");
  observer::ComputationLattice lattice(
      r.causality, r.space, {.retention = observer::Retention::kFull});
  lattice.build();
  std::printf("%s", lattice.render().c_str());
  std::printf("nodes: %zu, runs: %llu\n\n", lattice.stats().totalNodes,
              static_cast<unsigned long long>(lattice.stats().pathCount));

  std::printf("=== All runs, checked individually ===\n");
  observer::RunEnumerator runs(r.causality, r.space);
  logic::SynthesizedMonitor monitor(analyzer.formula());
  std::size_t idx = 0;
  runs.forEachRun([&](const observer::Run& run) {
    std::printf("run %zu:", ++idx);
    for (const auto& s : run.states) std::printf(" %s", s.toString().c_str());
    std::printf("  -> %s\n",
                monitor.firstViolation(run.states) >= 0 ? "VIOLATES" : "ok");
    return true;
  });

  std::printf("\n=== Predicted violations ===\n");
  for (const auto& v : r.predictedViolations) {
    std::printf("%s\n", r.describe(v).c_str());
  }

  const auto truth = analysis::groundTruth(prog, config.spec);
  std::printf("ground truth: %zu of %zu schedules violate\n",
              truth.violatingExecutions, truth.totalExecutions);
  return 0;
}
