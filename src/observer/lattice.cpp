#include "observer/lattice.hpp"

#include <algorithm>
#include <sstream>

#include "observer/analysis.hpp"
#include "observer/budget.hpp"
#include "observer/level_expand.hpp"
#include "observer/observer_metrics.hpp"
#include "telemetry/timer.hpp"
#include "telemetry/trace_span.hpp"

namespace mpx::observer {

std::string Cut::toString() const {
  std::ostringstream os;
  os << 'S';
  for (const auto v : k) os << v;
  return os.str();
}

const char* toString(DegradationMode m) noexcept {
  switch (m) {
    case DegradationMode::kFull: return "full";
    case DegradationMode::kSampled: return "sampled";
    case DegradationMode::kObservedOnly: return "observed-only";
  }
  return "?";
}

const char* toString(BoundReason r) noexcept {
  switch (r) {
    case BoundReason::kNone: return "none";
    case BoundReason::kMemoryBudget: return "memory-budget";
    case BoundReason::kMaxFrontier: return "max-frontier";
  }
  return "?";
}

PathNode::~PathNode() {
  // Each step detaches the next node's parent before that node dies, so no
  // destructor below this one recurses.  A node still shared by another
  // path stops the walk.
  PathPtr next = std::move(parent);
  while (next != nullptr && next.use_count() == 1) {
    next = std::move(next->parent);
  }
}

std::vector<EventRef> unwindPath(const PathPtr& path) {
  std::vector<EventRef> out;
  for (const PathNode* p = path.get(); p != nullptr; p = p->parent.get()) {
    out.push_back(p->event);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

ComputationLattice::ComputationLattice(const CausalityGraph& graph,
                                       StateSpace space, LatticeOptions opts)
    : graph_(&graph), space_(std::move(space)), opts_(opts) {
  if (!graph.finalized()) {
    throw std::logic_error("ComputationLattice: CausalityGraph not finalized");
  }
}

std::uint64_t ComputationLattice::observedPathKey(const Cut& cut) const {
  // Max globalSeq over the cut's per-thread last events.  globalSeq grows
  // along each thread, so this equals the max over ALL included events —
  // minimized exactly by the observed execution's prefix cut (budget.hpp).
  std::uint64_t key = 0;
  for (ThreadId j = 0; j < cut.k.size(); ++j) {
    if (cut.k[j] == 0) continue;
    key = std::max<std::uint64_t>(
        key, graph_->message(j, cut.k[j]).event.globalSeq);
  }
  return key;
}

bool ComputationLattice::enabled(const Cut& cut, ThreadId j) const {
  if (cut.k[j] >= graph_->eventsOfThread(j)) return false;
  const trace::Message& m = graph_->message(j, cut.k[j] + 1);
  // The event is enabled iff all its causal predecessors are in the cut:
  // V[j'] <= k_j' for every other thread j' (V[j] == k_j + 1 by Theorem 3).
  for (ThreadId o = 0; o < cut.k.size(); ++o) {
    if (o == j) continue;
    if (m.clock[o] > cut.k[o]) return false;
  }
  return true;
}

const LatticeStats& ComputationLattice::build() {
  return run(nullptr, nullptr, nullptr);
}

const LatticeStats& ComputationLattice::check(
    LatticeMonitor& mon, std::vector<Violation>& violations) {
  return run(&mon, &violations, nullptr);
}

const LatticeStats& ComputationLattice::analyze(
    AnalysisBus& bus, std::vector<Violation>& violations) {
  run(bus.monitor(), &violations, &bus);
  bus.finish(stats_);
  return stats_;
}

parallel::ThreadPool* ComputationLattice::poolForRun() {
  if (opts_.parallel.pool != nullptr) return opts_.parallel.pool;
  const std::size_t jobs = opts_.parallel.effectiveJobs();
  if (jobs <= 1) return nullptr;
  if (ownedPool_ == nullptr) {
    ownedPool_ = std::make_unique<parallel::ThreadPool>(jobs);
  }
  return ownedPool_.get();
}

const LatticeStats& ComputationLattice::run(LatticeMonitor* mon,
                                            std::vector<Violation>* violations,
                                            AnalysisBus* bus) {
  stats_ = LatticeStats{};
  retained_.clear();
  msets_ = std::make_unique<MonitorSetArena>();
  parallel::ThreadPool* pool = poolForRun();

  const std::size_t n = graph_->threadCount();
  std::uint64_t maxLevel = 0;
  for (ThreadId j = 0; j < n; ++j) maxLevel += graph_->eventsOfThread(j);

  // Level 0: the initial cut and the initial global state.
  detail::Frontier frontier;
  detail::FrontierNode init;
  init.state = GlobalState(space_.initialValues());
  init.pathCount = 1;
  if (mon != nullptr) {
    const MonitorState m0 = mon->initial(init.state);
    init.mstates.emplace(m0, nullptr);
    if (mon->isViolating(m0)) {
      detail::emitViolation(violations, bus, opts_, Cut(n), init.state, m0,
                            nullptr);
    }
  }
  frontier.emplace(Cut(n), std::move(init));

  stats_.levels = 1;
  stats_.totalNodes = 1;
  stats_.peakLevelWidth = 1;
  stats_.peakLiveNodes = 1;
  stats_.monitorStatesPeak = mon != nullptr ? 1 : 0;
  // Accounted bytes of the live working set (budget.hpp byte model).
  std::uint64_t carryBytes = detail::frontierBytes(frontier, opts_.recordPaths);
  stats_.accountedBytes = msets_->bytes() + carryBytes;
  stats_.peakAccountedBytes = stats_.accountedBytes;
  retainLevel(0, frontier);
  if (bus != nullptr) {
    bus->dispatchLevel(frontier, 0, *msets_, pool,
                       opts_.parallel.minFrontier);
  }

  const auto next = [this](const Cut& cut, ThreadId j) -> const trace::Message* {
    if (!enabled(cut, j)) return nullptr;
    return &graph_->message(j, cut.k[j] + 1);
  };

  for (std::uint64_t level = 0; level < maxLevel; ++level) {
    telemetry::TraceSpan span("lattice.level", "observer");
    telemetry::ScopedTimer levelTimer(ObserverMetrics::get().levelNs);
    std::size_t edges = 0;
    detail::Frontier next_ = detail::expandLevel(
        frontier, n, space_, mon, opts_, stats_, violations, bus, pool, edges,
        next);
    const std::size_t built = next_.size();

    if (next_.empty()) {
      // Should not happen for a consistent finalized graph, but guard.
      stats_.truncated = true;
      break;
    }
    if (opts_.beamWidth > 0 && next_.size() > opts_.beamWidth) {
      // Beam approximation: keep the cuts covering the most runs.
      std::vector<const Cut*> order;
      order.reserve(next_.size());
      for (const auto& [cut, node] : next_) order.push_back(&cut);
      std::sort(order.begin(), order.end(),
                [&next_](const Cut* a, const Cut* b) {
                  const auto pa = next_.at(*a).pathCount;
                  const auto pb = next_.at(*b).pathCount;
                  if (pa != pb) return pa > pb;
                  return a->k < b->k;  // deterministic tie-break
                });
      detail::Frontier kept;
      for (std::size_t i = 0; i < opts_.beamWidth; ++i) {
        kept.emplace(*order[i], std::move(next_.at(*order[i])));
      }
      stats_.beamPrunedNodes += next_.size() - kept.size();
      stats_.approximated = true;
      next_ = std::move(kept);
    }
    // Degradation ladder: shed nodes (deterministically) when the level
    // pushes the accounted working set over the budget or the frontier cap.
    detail::enforceBudget(next_, opts_, stats_, level + 1,
                          msets_->bytes(), carryBytes,
                          [this](const Cut& cut) {
                            return observedPathKey(cut);
                          });
    if (next_.size() > opts_.maxNodesPerLevel) {
      stats_.truncated = true;
      break;
    }

    detail::recordLevelEdges(stats_, edges, built);
    stats_.totalNodes += next_.size();
    stats_.peakLevelWidth = std::max(stats_.peakLevelWidth, next_.size());
    stats_.peakLiveNodes =
        std::max(stats_.peakLiveNodes, frontier.size() + next_.size());
    ++stats_.levels;
    stats_.gcNodes += frontier.size();
    if constexpr (telemetry::kEnabled) {
      ObserverMetrics& tm = ObserverMetrics::get();
      tm.levels.add(1);
      tm.nodesCreated.add(next_.size());
      tm.nodesGc.add(frontier.size());
      tm.frontierWidth.record(next_.size());
      tm.monitorStatesPeak.recordMax(
          static_cast<std::int64_t>(stats_.monitorStatesPeak));
      span.arg("level", static_cast<std::int64_t>(level + 1));
      span.arg("width", static_cast<std::int64_t>(next_.size()));
      span.arg("edges", static_cast<std::int64_t>(edges));
    }
    retainLevel(level + 1, next_);
    if (bus != nullptr) {
      bus->dispatchLevel(next_, level + 1, *msets_, pool,
                         opts_.parallel.minFrontier);
    }
    carryBytes = detail::frontierBytes(next_, opts_.recordPaths);
    frontier = std::move(next_);  // sliding window: old level dies here
  }

  // The final frontier is the single complete cut; its pathCount is the
  // number of multithreaded runs.
  if (frontier.size() == 1) {
    stats_.pathCount = frontier.begin()->second.pathCount;
  }
  detail::recordInternStats(stats_, *msets_);
  return stats_;
}

void ComputationLattice::retainLevel(std::uint64_t level,
                                     const detail::Frontier& frontier) {
  if (opts_.retention != Retention::kFull) return;
  std::vector<LevelNode> nodes;
  nodes.reserve(frontier.size());
  for (const auto& [cut, node] : frontier) {
    LevelNode ln;
    ln.cut = cut;
    ln.state = node.state;
    ln.pathCount = node.pathCount;
    for (const auto& [ms, witness] : node.mstates) {
      ln.monitorStates.push_back(ms);
    }
    nodes.push_back(std::move(ln));
  }
  std::sort(nodes.begin(), nodes.end(), [](const LevelNode& a,
                                           const LevelNode& b) {
    return a.cut.k < b.cut.k;
  });
  if (retained_.size() <= level) retained_.resize(level + 1);
  retained_[level] = std::move(nodes);
}

const std::vector<std::vector<LevelNode>>& ComputationLattice::levels() const {
  if (opts_.retention != Retention::kFull) {
    throw std::logic_error(
        "ComputationLattice: levels() requires Retention::kFull");
  }
  return retained_;
}

std::string ComputationLattice::render() const {
  const auto& lv = levels();
  std::ostringstream os;
  for (std::size_t L = 0; L < lv.size(); ++L) {
    os << "Level " << L << ":";
    for (const LevelNode& node : lv[L]) {
      os << "  " << node.cut.toString() << node.state.toString();
    }
    os << '\n';
  }
  return os.str();
}

std::string ComputationLattice::renderDot() const {
  const auto& lv = levels();
  std::ostringstream os;
  os << "digraph lattice {\n  rankdir=TB;\n  node [shape=box];\n";
  for (const auto& level : lv) {
    for (const LevelNode& node : level) {
      os << "  \"" << node.cut.toString() << "\" [label=\""
         << node.cut.toString() << "\\n" << node.state.toString() << "\"];\n";
    }
  }
  // Edges: recompute enabledness between consecutive levels.
  for (std::size_t L = 0; L + 1 < lv.size(); ++L) {
    for (const LevelNode& node : lv[L]) {
      for (ThreadId j = 0; j < node.cut.k.size(); ++j) {
        if (!enabled(node.cut, j)) continue;
        const Cut ncut = node.cut.advanced(j);
        os << "  \"" << node.cut.toString() << "\" -> \"" << ncut.toString()
           << "\";\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace mpx::observer
