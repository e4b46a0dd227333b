// Figure 6 regenerator + timing: the x/y/z example — messages with their
// exact MVCs, the 7-node lattice, the 3 runs and the rightmost violation.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include <cstdio>

#include "analysis/predictive_analyzer.hpp"
#include "observer/run_enumerator.hpp"
#include "program/corpus.hpp"
#include "trace/codec.hpp"

namespace {

using namespace mpx;
namespace corpus = program::corpus;

analysis::AnalysisResult analyzeObserved() {
  const program::Program prog = corpus::xyzProgram();
  analysis::AnalyzerConfig config;
  config.spec = corpus::xyzProperty();
  analysis::PredictiveAnalyzer analyzer(prog, config);
  program::FixedScheduler sched(corpus::xyzObservedSchedule());
  return analyzer.analyze(sched);
}

void printArtifact() {
  std::printf("=== Paper Figure 6: x/y/z computation lattice ===\n");
  std::printf("property: %s\n", corpus::xyzProperty());
  const program::Program prog = corpus::xyzProgram();
  const analysis::AnalysisResult r = analyzeObserved();

  std::printf("messages (paper notation):\n");
  trace::TextCodec codec(prog.vars);
  for (const auto& ref : r.observedRun) {
    std::printf("  %s\n", codec.format(r.causality.message(ref)).c_str());
  }

  observer::ComputationLattice lattice(
      r.causality, r.space, {.retention = observer::Retention::kFull});
  lattice.build();
  std::printf("%s", lattice.render().c_str());
  std::printf("nodes=%zu runs=%llu observed-violates=%s predicted=%zu\n\n",
              lattice.stats().totalNodes,
              static_cast<unsigned long long>(lattice.stats().pathCount),
              r.observedRunViolates() ? "yes" : "no",
              r.predictedViolations.size());
}

void BM_Fig6_EndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    const auto r = analyzeObserved();
    benchmark::DoNotOptimize(r.predictedViolations.size());
  }
}
BENCHMARK(BM_Fig6_EndToEnd);

void BM_Fig6_WithShuffledDelivery(benchmark::State& state) {
  // The observer pays a sort to undo reordering; measure the difference.
  const program::Program prog = corpus::xyzProgram();
  analysis::AnalyzerConfig config;
  config.spec = corpus::xyzProperty();
  config.delivery = trace::DeliveryPolicy::kShuffle;
  config.deliverySeed = 7;
  analysis::PredictiveAnalyzer analyzer(prog, config);
  for (auto _ : state) {
    program::FixedScheduler sched(corpus::xyzObservedSchedule());
    const auto r = analyzer.analyze(sched);
    benchmark::DoNotOptimize(r.predictedViolations.size());
  }
}
BENCHMARK(BM_Fig6_WithShuffledDelivery);

void BM_Fig6_RunEnumerationOracle(benchmark::State& state) {
  const auto r = analyzeObserved();
  for (auto _ : state) {
    observer::RunEnumerator runs(r.causality, r.space);
    std::size_t n = 0;
    runs.forEachRun([&n](const observer::Run&) {
      ++n;
      return true;
    });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_Fig6_RunEnumerationOracle);

}  // namespace

int main(int argc, char** argv) {
  printArtifact();
  return mpx::bench::runAndExport("fig6_lattice", argc, argv);
}
