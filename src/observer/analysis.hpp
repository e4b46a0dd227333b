// The pluggable analysis interface of the lattice engine.
//
// The paper's observer carries ONE synthesized monitor across the
// computation lattice.  This header generalizes that into an
// analysis-agnostic engine: any number of `Analysis` plugins ride a single
// level-by-level expansion, each seeing
//
//   * the raw instrumented event stream (onRawEvent / onObservedState),
//   * an optional monitor component packed into the per-node monitor word
//     (monitor(), via MonitorBus, so K properties share one lattice pass),
//     and
//   * every completed lattice node (onNode), with interned state and
//     monitor-state-set pointers so plugins can dedupe by pointer.
//
// Lifecycle of one engine pass:
//
//   onRawEvent* -> [lattice expansion: advance/isViolating per component,
//                   onViolation as violating tokens first enter a node,
//                   onNode per completed node] -> finish -> report
//
// Node order: every level's nodes are dispatched sorted by cut, on the
// thread that drives the analyzer, so a plugin's observations are a pure
// function of the lattice and a checkpoint/restore round trip (which
// rebuilds the frontier in a different internal layout) sees the same
// order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "observer/checkpoint.hpp"
#include "observer/intern.hpp"
#include "observer/lattice_types.hpp"
#include "telemetry/metrics.hpp"
#include "trace/event.hpp"

namespace mpx::observer {

/// One completed lattice node as shown to plugins.  `cut` and `state` are
/// valid only during the onNode call.  `monitorStates`
/// is interned: pointer equality is value equality, and a plugin may key
/// caches on that pointer.
struct NodeView {
  const Cut* cut = nullptr;
  const GlobalState* state = nullptr;  ///< the node's own global state
  std::uint64_t pathCount = 0;
  std::uint64_t level = 0;
  /// Interned sorted set of monitor-bus states reachable at this node
  /// (MonitorSetArena); empty set when no plugin contributes a monitor.
  const std::vector<MonitorState>* monitorStates = nullptr;
};

/// What a plugin hands back after finish().
struct AnalysisReport {
  std::string name;  ///< instance name, e.g. "ptltl: [](!p -> [*] !q)"
  std::string kind;  ///< "ptltl" | "race" | "deadlock" | "lasso" | custom
  std::size_t violationCount = 0;
  std::string text;  ///< canonical rendered findings
};

/// Base class of every checker.  All hooks are optional except
/// name()/kind()/report(); a plugin participates only in the phases it
/// overrides.
class Analysis {
 public:
  virtual ~Analysis() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string kind() const = 0;

  /// The plugin's monitor component, packed into the shared 64-bit monitor
  /// word next to every other plugin's (see MonitorBus).  Null: the plugin
  /// does not ride the monitor word.
  [[nodiscard]] virtual LatticeMonitor* monitor() { return nullptr; }

  /// One instrumented event of the observed execution, in observed order,
  /// with the locks the executing thread holds after the event.  Called
  /// before lattice expansion consumes the event's message.
  virtual void onRawEvent(const trace::Event& event,
                          const std::vector<LockId>& locksHeld) {
    (void)event;
    (void)locksHeld;
  }

  /// The observed run's global state after each tracked write (the linear
  /// trace the paper's observer would see without prediction).  Called
  /// once with the initial state before any event.
  virtual void onObservedState(const GlobalState& state) { (void)state; }

  /// One observer-bound message <e, i, V_i> as delivered.  Unlike
  /// onRawEvent this hook also runs DAEMON-side (the daemon never sees raw
  /// events, only messages) and carries the vector clock.  Delivery order
  /// is NOT a linearization of ≺ — Theorem 3 holds for any channel
  /// interleaving — so an implementation must not assume causal order;
  /// buffer and sort by globalSeq (the total order M) before concluding.
  virtual void onMessage(const trace::Message& m) { (void)m; }

  /// A violating monitor token first entered a node.  `componentState` is
  /// this plugin's slice of the token (MonitorBus::extract).  Return true
  /// to accept: the engine records the violation (and counts it) iff some
  /// plugin accepts.
  virtual bool onViolation(const Violation& v, MonitorState componentState) {
    (void)v;
    (void)componentState;
    return true;
  }

  /// Opt into per-node dispatch.
  [[nodiscard]] virtual bool wantsNodes() const { return false; }
  virtual void onNode(const NodeView& node) { (void)node; }

  /// The expansion is complete (or was truncated — see stats.truncated).
  virtual void finish(const LatticeStats& stats) { (void)stats; }

  /// Serializes the plugin's accumulated observations for a session
  /// checkpoint (observer/checkpoint.hpp).  Each implementation writes a
  /// leading version byte of its own; the default writes nothing — a
  /// stateless plugin round-trips for free.  Called between levels, never
  /// from inside a dispatch.
  virtual void checkpoint(ckpt::Writer& w) const { (void)w; }

  /// Inverse of checkpoint(): replaces the plugin's state wholesale from a
  /// blob written by the SAME plugin type.  Returns false (leaving the
  /// plugin unusable) on version or decode mismatch — snapshot files are
  /// untrusted input.  After a successful restore the plugin's report() is
  /// byte-identical to the checkpoint-time original.
  [[nodiscard]] virtual bool restore(ckpt::Reader& r) {
    (void)r;
    return true;
  }

  [[nodiscard]] virtual AnalysisReport report() const = 0;
};

/// Packs the monitor components of several plugins side by side in the
/// 64-bit per-node monitor word (LatticeMonitor::stateBits() declares each
/// component's width).  advance/isViolating/canEverViolate fan out to
/// every component, and extract() recovers one plugin's slice.
class MonitorBus final : public LatticeMonitor {
 public:
  struct Component {
    Analysis* plugin = nullptr;
    LatticeMonitor* monitor = nullptr;
    unsigned shift = 0;
    unsigned bits = 0;
    MonitorState mask = 0;  ///< pre-shift mask of `bits` ones
  };

  /// Throws std::invalid_argument when the combined widths exceed 64.
  void add(Analysis* plugin, LatticeMonitor* monitor);

  [[nodiscard]] bool empty() const noexcept { return components_.empty(); }
  [[nodiscard]] const std::vector<Component>& components() const noexcept {
    return components_;
  }

  [[nodiscard]] MonitorState extract(MonitorState m, std::size_t i) const {
    const Component& c = components_[i];
    return (m >> c.shift) & c.mask;
  }

  MonitorState initial(const GlobalState& s) override;
  MonitorState advance(MonitorState prev, const GlobalState& s) override;
  [[nodiscard]] bool isViolating(MonitorState m) const override;
  [[nodiscard]] bool canEverViolate(MonitorState m) const override;
  [[nodiscard]] unsigned stateBits() const override { return used_; }

 private:
  std::vector<Component> components_;
  unsigned used_ = 0;
};

/// The engine-facing bundle of one pass's plugins: owns the MonitorBus,
/// filters violations through the owning plugins, dispatches completed
/// nodes, and collects reports.  Non-owning — plugins must outlive the bus.
class AnalysisBus {
 public:
  explicit AnalysisBus(std::vector<Analysis*> plugins);

  /// The packed monitor the expansion should run, or null when no plugin
  /// contributes a component.
  [[nodiscard]] LatticeMonitor* monitor() noexcept {
    return bus_.empty() ? nullptr : &bus_;
  }
  [[nodiscard]] const MonitorBus& monitorBus() const noexcept { return bus_; }
  [[nodiscard]] const std::vector<Analysis*>& plugins() const noexcept {
    return plugins_;
  }

  /// Routes a violating token to the plugins whose components violate.
  /// True iff some plugin accepted (the engine then records `v`).  The
  /// violation is mutable: when a state lift is installed (see
  /// setStateLift) it is applied BEFORE any plugin sees the violation, so
  /// plugin-recorded copies and the engine-recorded copy agree.
  bool acceptViolation(Violation& v);

  /// Installs a violation-state rewrite applied once per candidate
  /// violation.  Used by the engine's MHP prefilter: the lattice expands a
  /// pruned suffix-free state space, and the lift re-extends each
  /// violation's state to the full union space (sound because a
  /// variable's value is cut-determined — writes to one variable are
  /// totally ordered by ≺, so a consistent cut fixes every value).
  void setStateLift(std::function<void(Violation&)> lift) {
    lift_ = std::move(lift);
  }

  /// True when some plugin wants per-node dispatch.
  [[nodiscard]] bool wantsNodes() const noexcept { return wantsNodes_; }

  /// Dispatches one completed level's nodes (sorted by cut: `frontier`'s
  /// order() must be current) to every node-observing plugin; msets are
  /// interned into `msets` first.
  void dispatchLevel(const detail::Level& frontier, std::uint64_t level,
                     MonitorSetArena& msets);

  /// Runs every plugin's raw-event hook (observed order).
  void dispatchRawEvent(const trace::Event& event,
                        const std::vector<LockId>& locksHeld);
  void dispatchObservedState(const GlobalState& state);
  /// Runs every plugin's message hook (delivery order — see onMessage).
  void dispatchMessage(const trace::Message& m);

  void finish(const LatticeStats& stats);
  [[nodiscard]] std::vector<AnalysisReport> reports() const;

 private:
  std::vector<Analysis*> plugins_;
  MonitorBus bus_;
  std::function<void(Violation&)> lift_;
  bool wantsNodes_ = false;
  /// Per-plugin "mpx_analysis_<kind>_violations_total" (telemetry ON only).
  std::unordered_map<Analysis*, telemetry::Counter*> kindCounters_;
};

}  // namespace mpx::observer
