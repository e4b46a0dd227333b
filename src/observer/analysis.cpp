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

void AnalysisBus::dispatchLevel(const detail::Level& frontier,
                                std::uint64_t level, MonitorSetArena& msets) {
  if (!wantsNodes_) return;
  telemetry::ScopedTimer timer(AnalysisMetrics::get().nodeDispatchNs);

  // Sorted by cut: the node order is a pure function of the lattice.  The
  // plugins see each row through one Cut and one GlobalState reused across
  // the level.
  Cut cut;
  GlobalState state;
  for (const std::uint32_t row : frontier.order()) {
    cut.k.assign(frontier.cut(row), frontier.cut(row) + frontier.threads());
    state.values.assign(frontier.state(row),
                        frontier.state(row) + frontier.slots());
    std::vector<MonitorState> ms;
    ms.reserve(frontier.entryCount(row));
    for (std::uint32_t e = frontier.firstEntry(row); e != detail::Level::kEnd;
         e = frontier.entry(e).next) {
      ms.push_back(frontier.entry(e).state);
    }
    const NodeView view{&cut, &state, frontier.pathCount(row), level,
                        msets.intern(std::move(ms))};
    for (Analysis* p : plugins_) {
      if (p->wantsNodes()) p->onNode(view);
    }
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
