#include "observer/analysis.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/timer.hpp"

namespace mpx::observer {

namespace {

/// Engine-level plugin telemetry.  Per-kind violation counters are created
/// lazily by AnalysisBus ("mpx_analysis_<kind>_violations_total").
struct AnalysisMetrics {
  telemetry::Counter& accepted;
  telemetry::Counter& rejected;
  telemetry::Histogram& nodeDispatchNs;
  telemetry::Histogram& finishNs;
  telemetry::Gauge& pluginsActive;

  static AnalysisMetrics& get() {
    static AnalysisMetrics m{
        telemetry::registry().counter(
            "mpx_analysis_violations_total",
            "Violations accepted by some analysis plugin"),
        telemetry::registry().counter(
            "mpx_analysis_violations_rejected_total",
            "Candidate violations every owning plugin rejected (e.g. "
            "dedup or failed verification)"),
        telemetry::registry().histogram(
            "mpx_analysis_node_dispatch_ns",
            "Wall time dispatching one completed level to node-observing "
            "plugins"),
        telemetry::registry().histogram(
            "mpx_analysis_finish_ns",
            "Wall time of one plugin's finish() hook"),
        telemetry::registry().gauge(
            "mpx_analysis_plugins_active",
            "Plugins attached to the most recently constructed bus"),
    };
    return m;
  }
};

}  // namespace

void MonitorBus::add(Analysis* plugin, LatticeMonitor* monitor) {
  unsigned bits = monitor->stateBits();
  if (bits == 0) bits = 1;
  if (bits > 64 || used_ + bits > 64) {
    throw std::invalid_argument(
        "MonitorBus: monitor components exceed 64 packed bits (" +
        std::to_string(used_) + " used, component wants " +
        std::to_string(bits) + ")");
  }
  Component c;
  c.plugin = plugin;
  c.monitor = monitor;
  c.shift = used_;
  c.bits = bits;
  c.mask = bits == 64 ? ~MonitorState{0} : ((MonitorState{1} << bits) - 1);
  used_ += bits;
  components_.push_back(c);
}

MonitorState MonitorBus::initial(const GlobalState& s) {
  MonitorState m = 0;
  for (const Component& c : components_) {
    m |= (c.monitor->initial(s) & c.mask) << c.shift;
  }
  return m;
}

MonitorState MonitorBus::advance(MonitorState prev, const GlobalState& s) {
  MonitorState m = 0;
  for (const Component& c : components_) {
    const MonitorState sub = (prev >> c.shift) & c.mask;
    m |= (c.monitor->advance(sub, s) & c.mask) << c.shift;
  }
  return m;
}

bool MonitorBus::isViolating(MonitorState m) const {
  for (const Component& c : components_) {
    if (c.monitor->isViolating((m >> c.shift) & c.mask)) return true;
  }
  return false;
}

bool MonitorBus::canEverViolate(MonitorState m) const {
  // A token stays live while ANY component can still violate; a dropped
  // token is permanently safe for every plugin at once.
  for (const Component& c : components_) {
    if (c.monitor->canEverViolate((m >> c.shift) & c.mask)) return true;
  }
  return false;
}

AnalysisBus::AnalysisBus(std::vector<Analysis*> plugins)
    : plugins_(std::move(plugins)) {
  for (Analysis* p : plugins_) {
    if (LatticeMonitor* mon = p->monitor()) bus_.add(p, mon);
    wantsNodes_ = wantsNodes_ || p->wantsNodes();
  }
  if constexpr (telemetry::kEnabled) {
    AnalysisMetrics::get().pluginsActive.set(
        static_cast<std::int64_t>(plugins_.size()));
    for (Analysis* p : plugins_) {
      kindCounters_.emplace(
          p, &telemetry::registry().counter(
                 "mpx_analysis_" + p->kind() + "_violations_total",
                 "Violations accepted by '" + p->kind() + "' plugins"));
    }
  }
}

bool AnalysisBus::acceptViolation(Violation& v) {
  if (lift_) lift_(v);  // full-space state BEFORE any plugin records a copy
  bool accepted = false;
  for (std::size_t i = 0; i < bus_.components().size(); ++i) {
    const MonitorBus::Component& c = bus_.components()[i];
    const MonitorState sub = bus_.extract(v.monitorState, i);
    if (!c.monitor->isViolating(sub)) continue;
    if (c.plugin->onViolation(v, sub)) {
      accepted = true;
      if constexpr (telemetry::kEnabled) {
        const auto it = kindCounters_.find(c.plugin);
        if (it != kindCounters_.end()) it->second->add(1);
      }
    }
  }
  if constexpr (telemetry::kEnabled) {
    (accepted ? AnalysisMetrics::get().accepted
              : AnalysisMetrics::get().rejected)
        .add(1);
  }
  return accepted;
}

void AnalysisBus::dispatchLevel(const detail::Frontier& frontier,
                                std::uint64_t level, MonitorSetArena& msets,
                                parallel::ThreadPool* pool,
                                std::size_t minFrontier) {
  if (!wantsNodes_) return;
  telemetry::ScopedTimer timer(AnalysisMetrics::get().nodeDispatchNs);

  // Snapshot sorted by cut: the deterministic node order every jobs count
  // observes (directly, or re-assembled by the chunk-order merge).
  std::vector<const std::pair<const Cut, detail::FrontierNode>*> items;
  items.reserve(frontier.size());
  for (const auto& kv : frontier) items.push_back(&kv);
  std::sort(items.begin(), items.end(),
            [](const auto* a, const auto* b) { return a->first.k < b->first.k; });

  // Intern each node's monitor-state set (orchestrator thread: the arena
  // is single-threaded by design).
  std::vector<NodeView> views(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& [cut, node] = *items[i];
    std::vector<MonitorState> ms;
    ms.reserve(node.mstates.size());
    for (const auto& [m, witness] : node.mstates) ms.push_back(m);
    views[i] = NodeView{&cut, &node.state, node.pathCount, level,
                        msets.intern(std::move(ms))};
  }

  std::vector<Analysis*> observers;
  for (Analysis* p : plugins_) {
    if (p->wantsNodes()) observers.push_back(p);
  }

  const bool concurrent = pool != nullptr && pool->workers() > 1 &&
                          views.size() >= minFrontier;
  if (concurrent) {
    const std::size_t chunks = pool->workers();
    std::vector<std::vector<std::unique_ptr<Analysis>>> forks(chunks);
    bool forkable = true;
    for (std::size_t c = 0; c < chunks && forkable; ++c) {
      for (Analysis* o : observers) {
        auto f = o->fork();
        if (f == nullptr) {
          forkable = false;  // plugin can't fork: whole level goes serial
          break;
        }
        forks[c].push_back(std::move(f));
      }
    }
    if (forkable) {
      pool->parallelFor(views.size(), [&](std::size_t begin, std::size_t end,
                                          std::size_t c) {
        for (std::size_t i = begin; i < end; ++i) {
          for (auto& f : forks[c]) f->onNode(views[i]);
        }
      });
      for (std::size_t c = 0; c < chunks; ++c) {
        for (std::size_t o = 0; o < observers.size(); ++o) {
          observers[o]->merge(*forks[c][o]);
        }
      }
      return;
    }
  }
  for (const NodeView& view : views) {
    for (Analysis* o : observers) o->onNode(view);
  }
}

void AnalysisBus::dispatchRawEvent(const trace::Event& event,
                                   const std::vector<LockId>& locksHeld) {
  for (Analysis* p : plugins_) p->onRawEvent(event, locksHeld);
}

void AnalysisBus::dispatchObservedState(const GlobalState& state) {
  for (Analysis* p : plugins_) p->onObservedState(state);
}

void AnalysisBus::dispatchMessage(const trace::Message& m) {
  for (Analysis* p : plugins_) p->onMessage(m);
}

void AnalysisBus::finish(const LatticeStats& stats) {
  for (Analysis* p : plugins_) {
    telemetry::ScopedTimer timer(AnalysisMetrics::get().finishNs);
    p->finish(stats);
  }
}

std::vector<AnalysisReport> AnalysisBus::reports() const {
  std::vector<AnalysisReport> out;
  out.reserve(plugins_.size());
  for (const Analysis* p : plugins_) out.push_back(p->report());
  return out;
}

}  // namespace mpx::observer
