// Figure 5 regenerator + timing.
//
// Prints the paper's Fig. 5 artifact — the landing-controller computation
// lattice (6 states, 3 runs, 2 violating) regenerated from one successful
// execution — then times the pieces of the pipeline that produce it.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include <cstdio>

#include "analysis/predictive_analyzer.hpp"
#include "observer/run_enumerator.hpp"
#include "program/corpus.hpp"

namespace {

using namespace mpx;
namespace corpus = program::corpus;

analysis::AnalysisResult analyzeObserved() {
  const program::Program prog = corpus::landingController();
  analysis::AnalyzerConfig config;
  config.spec = corpus::landingProperty();
  analysis::PredictiveAnalyzer analyzer(prog, config);
  program::FixedScheduler sched(corpus::landingObservedSchedule());
  return analyzer.analyze(sched);
}

void printArtifact() {
  std::printf("=== Paper Figure 5: landing-controller computation lattice ===\n");
  std::printf("property: %s\n", corpus::landingProperty());
  const analysis::AnalysisResult r = analyzeObserved();
  observer::ComputationLattice lattice(r.causality, r.space,
                                       {.retention = observer::Retention::kFull});
  lattice.build();
  std::printf("%s", lattice.render().c_str());
  std::printf("nodes=%zu runs=%llu observed-violates=%s predicted=%zu\n",
              lattice.stats().totalNodes,
              static_cast<unsigned long long>(lattice.stats().pathCount),
              r.observedRunViolates() ? "yes" : "no",
              r.predictedViolations.size());

  observer::RunEnumerator runs(r.causality, r.space);
  const program::Program prog = corpus::landingController();
  analysis::PredictiveAnalyzer analyzer(
      prog, analysis::specConfig(corpus::landingProperty()));
  logic::SynthesizedMonitor monitor(analyzer.formula());
  std::size_t idx = 0;
  runs.forEachRun([&](const observer::Run& run) {
    std::printf("run %zu:", ++idx);
    for (const auto& s : run.states) std::printf(" %s", s.toString().c_str());
    std::printf("  %s\n",
                monitor.firstViolation(run.states) >= 0 ? "VIOLATES" : "ok");
    return true;
  });
  std::printf("\n");
}

void BM_Fig5_EndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    const auto r = analyzeObserved();
    benchmark::DoNotOptimize(r.predictedViolations.size());
  }
}
BENCHMARK(BM_Fig5_EndToEnd);

void BM_Fig5_LatticeOnly(benchmark::State& state) {
  const auto r = analyzeObserved();
  const program::Program prog = corpus::landingController();
  analysis::PredictiveAnalyzer analyzer(
      prog, analysis::specConfig(corpus::landingProperty()));
  for (auto _ : state) {
    observer::ComputationLattice lattice(r.causality, r.space);
    logic::SynthesizedMonitor monitor(analyzer.formula());
    std::vector<observer::Violation> violations;
    lattice.check(monitor, violations);
    benchmark::DoNotOptimize(violations.size());
  }
}
BENCHMARK(BM_Fig5_LatticeOnly);

void BM_Fig5_ProgramExecutionOnly(benchmark::State& state) {
  const program::Program prog = corpus::landingController();
  for (auto _ : state) {
    program::FixedScheduler sched(corpus::landingObservedSchedule());
    const auto rec = program::runProgram(prog, sched);
    benchmark::DoNotOptimize(rec.events.size());
  }
}
BENCHMARK(BM_Fig5_ProgramExecutionOnly);

}  // namespace

int main(int argc, char** argv) {
  printArtifact();
  return mpx::bench::runAndExport("fig5_lattice", argc, argv);
}
