#include "observer/lattice.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

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

const LatticeStats& ComputationLattice::build() {
  return run(std::make_unique<OnlineAnalyzer>(space_, graph_->threadCount(),
                                              nullptr, opts_),
             nullptr);
}

const LatticeStats& ComputationLattice::check(
    LatticeMonitor& mon, std::vector<Violation>& violations) {
  return run(std::make_unique<OnlineAnalyzer>(space_, graph_->threadCount(),
                                              &mon, opts_),
             &violations);
}

const LatticeStats& ComputationLattice::analyze(
    AnalysisBus& bus, std::vector<Violation>& violations) {
  return run(std::make_unique<OnlineAnalyzer>(space_, graph_->threadCount(),
                                              bus, opts_),
             &violations);
}

const LatticeStats& ComputationLattice::run(
    std::unique_ptr<OnlineAnalyzer> analyzer,
    std::vector<Violation>* violations) {
  analyzer_ = std::move(analyzer);
  for (const EventRef& ref : graph_->observedOrder()) {
    analyzer_->onMessage(graph_->message(ref));
  }
  analyzer_->endOfTrace();
  stats_ = analyzer_->stats();
  if (violations != nullptr) {
    violations->insert(violations->end(), analyzer_->violations().begin(),
                       analyzer_->violations().end());
  }
  return stats_;
}

const std::vector<std::vector<LevelNode>>& ComputationLattice::levels() const {
  if (analyzer_ == nullptr) {
    throw std::logic_error("ComputationLattice: levels() before a build");
  }
  return analyzer_->levels();
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
  // Edges: thread j's next event is enabled at a cut iff all its causal
  // predecessors are in the cut: V[o] <= k_o for every other thread o
  // (V[j] == k_j + 1 by Theorem 3).
  const auto enabled = [this](const Cut& cut, ThreadId j) {
    if (cut.k[j] >= graph_->eventsOfThread(j)) return false;
    const trace::Message& m = graph_->message(j, cut.k[j] + 1);
    for (ThreadId o = 0; o < cut.k.size(); ++o) {
      if (o != j && m.clock[o] > cut.k[o]) return false;
    }
    return true;
  };
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
