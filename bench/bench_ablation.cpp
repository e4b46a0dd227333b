// Ablation benches for the design choices DESIGN.md calls out:
//   * sliding-window vs full lattice retention (memory/time),
//   * counterexample path recording on/off,
//   * packed one-word monitor state vs a deliberately "fat" monitor whose
//     states never collide (why monitor-state SETS stay small),
//   * online (incremental) vs batch lattice construction.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include "core/instrumentor.hpp"
#include "logic/monitor.hpp"
#include "logic/parser.hpp"
#include "observer/lattice.hpp"
#include "observer/online.hpp"
#include "program/corpus.hpp"
#include "program/scheduler.hpp"
#include "trace/channel.hpp"

namespace {

using namespace mpx;

struct Computation {
  observer::CausalityGraph graph;
  observer::StateSpace space;
  logic::Formula formula;
  std::size_t threads = 0;
};

Computation buildComputation(std::size_t threads, std::size_t writes) {
  const program::Program prog =
      program::corpus::independentWriters(threads, writes);
  program::GreedyScheduler sched;
  const program::ExecutionRecord rec = program::runProgram(prog, sched);

  Computation c;
  c.threads = threads;
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
  c.formula = logic::SpecParser(c.space).parse(
      "once(v0 >= 1 && v1 >= 1) -> v0 <= v1 + 2");
  return c;
}

void BM_Ablation_Retention(benchmark::State& state) {
  const bool full = state.range(0) != 0;
  const Computation c = buildComputation(3, 4);
  observer::LatticeOptions opts;
  opts.retention = full ? observer::Retention::kFull
                        : observer::Retention::kSlidingWindow;
  for (auto _ : state) {
    observer::ComputationLattice lattice(c.graph, c.space, opts);
    const auto& stats = lattice.build();
    benchmark::DoNotOptimize(stats.totalNodes);
  }
  state.SetLabel(full ? "full-retention" : "sliding-window");
}
BENCHMARK(BM_Ablation_Retention)->Arg(0)->Arg(1);

void BM_Ablation_PathRecording(benchmark::State& state) {
  const bool record = state.range(0) != 0;
  const Computation c = buildComputation(3, 4);
  observer::LatticeOptions opts;
  opts.recordPaths = record;
  for (auto _ : state) {
    observer::ComputationLattice lattice(c.graph, c.space, opts);
    logic::SynthesizedMonitor mon(c.formula);
    std::vector<observer::Violation> violations;
    lattice.check(mon, violations);
    benchmark::DoNotOptimize(violations.size());
  }
  state.SetLabel(record ? "record-paths" : "no-paths");
}
BENCHMARK(BM_Ablation_PathRecording)->Arg(0)->Arg(1);

/// A monitor that deliberately defeats state sharing: every (state, input)
/// hash lands in a fresh 64-bit value, so node sets grow with path counts
/// instead of collapsing — quantifies how much the synthesized monitors'
/// canonical packed state buys.
class FatStateMonitor final : public observer::LatticeMonitor {
 public:
  explicit FatStateMonitor(const logic::Formula& f) : inner_(f) {}
  observer::MonitorState initial(const observer::GlobalState& s) override {
    return mix(inner_.initial(s), s.hash());
  }
  observer::MonitorState advance(observer::MonitorState prev,
                                 const observer::GlobalState& s) override {
    return mix(prev, s.hash());
  }
  [[nodiscard]] bool isViolating(observer::MonitorState) const override {
    return false;  // structure-cost ablation only
  }

 private:
  static observer::MonitorState mix(observer::MonitorState a,
                                    std::size_t b) {
    return a * 1099511628211ull ^ (b + 0x9e3779b97f4a7c15ull);
  }
  logic::SynthesizedMonitor inner_;
};

void BM_Ablation_MonitorStateSharing(benchmark::State& state) {
  const bool fat = state.range(0) != 0;
  const Computation c = buildComputation(3, 3);
  std::size_t peak = 0;
  for (auto _ : state) {
    observer::ComputationLattice lattice(c.graph, c.space);
    std::vector<observer::Violation> violations;
    if (fat) {
      FatStateMonitor mon(c.formula);
      lattice.check(mon, violations);
    } else {
      logic::SynthesizedMonitor mon(c.formula);
      lattice.check(mon, violations);
    }
    peak = lattice.stats().monitorStatesPeak;
    benchmark::DoNotOptimize(peak);
  }
  state.counters["mstatesPeak"] = static_cast<double>(peak);
  state.SetLabel(fat ? "history-dependent-state" : "packed-canonical-state");
}
BENCHMARK(BM_Ablation_MonitorStateSharing)->Arg(0)->Arg(1);

void BM_Ablation_OnlineVsBatch(benchmark::State& state) {
  const bool online = state.range(0) != 0;
  const Computation c = buildComputation(3, 4);
  std::vector<trace::Message> msgs;
  for (const auto& ref : c.graph.observedOrder()) {
    msgs.push_back(c.graph.message(ref));
  }
  for (auto _ : state) {
    if (online) {
      logic::SynthesizedMonitor mon(c.formula);
      observer::OnlineAnalyzer analyzer(c.space, c.threads, &mon);
      for (const auto& m : msgs) analyzer.onMessage(m);
      analyzer.endOfTrace();
      benchmark::DoNotOptimize(analyzer.violations().size());
    } else {
      observer::ComputationLattice lattice(c.graph, c.space);
      logic::SynthesizedMonitor mon(c.formula);
      std::vector<observer::Violation> violations;
      lattice.check(mon, violations);
      benchmark::DoNotOptimize(violations.size());
    }
  }
  state.SetLabel(online ? "online-incremental" : "batch");
}
BENCHMARK(BM_Ablation_OnlineVsBatch)->Arg(0)->Arg(1);

}  // namespace

MPX_BENCH_MAIN("ablation");
