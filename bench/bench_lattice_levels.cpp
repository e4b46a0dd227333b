// Claim C4 — "at most two consecutive levels in the computation lattice
// need to be stored at any moment" (paper §4.1).
//
// The k-writer workload makes every relevant event pairwise concurrent, so
// the lattice is the product of k chains: total nodes (w+1)^k, runs
// (kw)!/(w!)^k — exponential — while the sliding-window construction keeps
// only two adjacent levels alive.  The counters below print exactly that
// gap (totalNodes vs peakLiveNodes) next to construction time.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include <cstdio>

#include "core/instrumentor.hpp"
#include "observer/lattice.hpp"
#include "observer/lattice_types.hpp"
#include "program/corpus.hpp"
#include "program/scheduler.hpp"
#include "trace/channel.hpp"

namespace {

using namespace mpx;

struct Computation {
  observer::CausalityGraph graph;
  observer::StateSpace space;
};

Computation buildComputation(std::size_t threads, std::size_t writes) {
  const program::Program prog =
      program::corpus::independentWriters(threads, writes);
  program::GreedyScheduler sched;
  const program::ExecutionRecord rec = program::runProgram(prog, sched);

  Computation c;
  std::unordered_set<VarId> vars;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < threads; ++i) {
    names.push_back("v" + std::to_string(i));
    vars.insert(prog.vars.id(names.back()));
  }
  core::Instrumentor instr(core::RelevancePolicy::writesOf(vars), c.graph);
  for (const auto& e : rec.events) instr.onEvent(e);
  c.graph.finalize();
  c.space = observer::StateSpace::byNames(prog.vars, names);
  return c;
}

void BM_Lattice_IndependentWriters(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t writes = static_cast<std::size_t>(state.range(1));
  const Computation c = buildComputation(threads, writes);

  observer::LatticeStats stats;
  for (auto _ : state) {
    observer::ComputationLattice lattice(c.graph, c.space);
    stats = lattice.build();
    benchmark::DoNotOptimize(stats.totalNodes);
  }
  state.counters["nodes"] = static_cast<double>(stats.totalNodes);
  state.counters["peakLive"] = static_cast<double>(stats.peakLiveNodes);
  state.counters["runs"] = static_cast<double>(stats.pathCount);
  state.counters["levels"] = static_cast<double>(stats.levels);
  state.counters["edges"] = static_cast<double>(stats.totalEdges);
}
BENCHMARK(BM_Lattice_IndependentWriters)
    ->Args({2, 2})
    ->Args({2, 8})
    ->Args({3, 3})
    ->Args({3, 5})
    ->Args({4, 3})
    ->Args({4, 4})
    ->Args({5, 3});

void BM_Lattice_SerializedWriters(benchmark::State& state) {
  // The other extreme: fully ordered relevant events — a path lattice.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t writes = static_cast<std::size_t>(state.range(1));
  const program::Program prog =
      program::corpus::serializedWriters(threads, writes);
  program::GreedyScheduler sched;
  const program::ExecutionRecord rec = program::runProgram(prog, sched);

  observer::CausalityGraph graph;
  core::Instrumentor instr(
      core::RelevancePolicy::writesOf({prog.vars.id("total")}), graph);
  for (const auto& e : rec.events) instr.onEvent(e);
  graph.finalize();
  const auto space = observer::StateSpace::byNames(prog.vars, {"total"});

  observer::LatticeStats stats;
  for (auto _ : state) {
    observer::ComputationLattice lattice(graph, space);
    stats = lattice.build();
    benchmark::DoNotOptimize(stats.totalNodes);
  }
  state.counters["nodes"] = static_cast<double>(stats.totalNodes);
  state.counters["peakLive"] = static_cast<double>(stats.peakLiveNodes);
  state.counters["runs"] = static_cast<double>(stats.pathCount);
}
BENCHMARK(BM_Lattice_SerializedWriters)->Args({3, 5})->Args({4, 8});

void BM_Level_NarrowAfterWide(benchmark::State& state) {
  // A narrow level (one cut and its successor on 4 threads) built into a
  // detail::Level that once held `peak` rows: the reused level keeps its
  // capacity, and a level should still cost what its own width costs —
  // the same for every `peak`.
  constexpr std::size_t kThreads = 4;
  const auto peak = static_cast<std::uint32_t>(state.range(0));
  observer::detail::Level level;
  level.reset(kThreads, 1);
  for (std::uint32_t i = 0; i < peak; ++i) {
    const std::uint32_t cut[kThreads] = {i, peak - i, 0, 0};
    level.insert(cut);
  }
  level.clear();
  std::uint32_t k = 0;
  for (auto _ : state) {
    const std::uint32_t cut[kThreads] = {k, k, k, k};
    const std::uint32_t row = level.insert(cut).first;
    level.insertSuccessor(level, row, 0);
    level.sortRows();
    benchmark::DoNotOptimize(level.order().data());
    level.clear();
    ++k;
  }
}
BENCHMARK(BM_Level_NarrowAfterWide)->Arg(1)->Arg(1024)->Arg(131072);

void printLevelTable() {
  std::printf(
      "=== Claim C4: sliding-window memory vs lattice size "
      "(k writers x w writes) ===\n");
  std::printf("%8s %8s %12s %12s %14s\n", "threads", "writes", "nodes",
              "peakLive", "runs");
  for (const auto& [threads, writes] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 4}, {3, 3}, {3, 5}, {4, 3}, {4, 4}, {5, 3}}) {
    const Computation c = buildComputation(threads, writes);
    observer::ComputationLattice lattice(c.graph, c.space);
    const auto& stats = lattice.build();
    std::printf("%8zu %8zu %12zu %12zu %14llu\n", threads, writes,
                stats.totalNodes, stats.peakLiveNodes,
                static_cast<unsigned long long>(stats.pathCount));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  printLevelTable();
  return mpx::bench::runAndExport("lattice_levels", argc, argv);
}
