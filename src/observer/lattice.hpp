// The computation lattice (paper §4, Figs. 5 and 6).
//
// Every permutation of the relevant events consistent with ⊳ is a
// *multithreaded run*; the set of global states these runs pass through,
// ordered by run prefixes, forms a lattice.  A node is a *consistent cut*
// (k_1,...,k_n): thread j has executed its first k_j relevant events, and
// consistency requires each included event's causal predecessors to be
// included too — checked directly on the events' MVCs.
//
// The lattice is built level by level (level L = cuts with Σk_j = L), in a
// top-down manner as messages become available; with the sliding-window
// retention policy "at most two consecutive levels need to be stored at any
// moment" (paper §4.1), which is what makes online predictive analysis
// tractable despite the exponential number of runs.
//
// Safety monitors ride along: each node carries the *set* of monitor states
// reachable along some run ending in that cut, so all runs are analyzed in
// parallel in one pass (paper: "store the state of the FSM or of the
// synthesized monitor together with each global state in the computation
// lattice").
//
// Level expansion can itself run multi-threaded (LatticeOptions::parallel)
// — see level_expand.hpp for the engine and its determinism contract.  The
// vocabulary types (Cut, Violation, LatticeStats, ...) live in
// lattice_types.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "observer/causality.hpp"
#include "observer/global_state.hpp"
#include "observer/intern.hpp"
#include "observer/lattice_types.hpp"

namespace mpx::observer {

class AnalysisBus;

class ComputationLattice {
 public:
  /// `graph` must be finalized.  `space` defines which variables make up
  /// the global state (with their initial values).
  ComputationLattice(const CausalityGraph& graph, StateSpace space,
                     LatticeOptions opts = {});

  /// Builds the lattice without a monitor (structure, states, run counts).
  const LatticeStats& build();

  /// Builds the lattice while checking `mon` over all runs in parallel.
  /// Violations (up to opts.maxViolations distinct witnesses) land in
  /// `violations`.
  const LatticeStats& check(LatticeMonitor& mon,
                            std::vector<Violation>& violations);

  /// Builds the lattice while running a whole plugin bus (analysis.hpp):
  /// the bus's packed monitor rides the nodes, candidate violations are
  /// filtered through the owning plugins, completed levels are dispatched
  /// to node-observing plugins, and plugin finish() hooks run at the end.
  /// Accepted violations land in `violations`.
  const LatticeStats& analyze(AnalysisBus& bus,
                              std::vector<Violation>& violations);

  [[nodiscard]] const LatticeStats& stats() const noexcept { return stats_; }

  /// Retained levels (only with Retention::kFull).  levels()[L] is sorted
  /// by cut for deterministic iteration.
  [[nodiscard]] const std::vector<std::vector<LevelNode>>& levels() const;

  /// Renders the full lattice as an ASCII diagram (requires kFull).
  [[nodiscard]] std::string render() const;

  /// Renders as Graphviz dot (requires kFull).
  [[nodiscard]] std::string renderDot() const;

 private:
  const LatticeStats& run(LatticeMonitor* mon,
                          std::vector<Violation>* violations,
                          AnalysisBus* bus);
  [[nodiscard]] bool enabled(const Cut& cut, ThreadId j) const;
  /// Max globalSeq over the cut's per-thread last events — the budget
  /// enforcer's observed-execution key (see budget.hpp).
  [[nodiscard]] std::uint64_t observedPathKey(const Cut& cut) const;
  void retainLevel(std::uint64_t level, const detail::Frontier& frontier);
  [[nodiscard]] parallel::ThreadPool* poolForRun();

  const CausalityGraph* graph_;
  StateSpace space_;
  LatticeOptions opts_;
  LatticeStats stats_;
  std::vector<std::vector<LevelNode>> retained_;
  /// Lazily created when opts_.parallel asks for jobs > 1 and no external
  /// pool was injected; reused across build()/check() calls.
  std::unique_ptr<parallel::ThreadPool> ownedPool_;
  /// Monitor-set arena, recreated per run (dispatched NodeViews point into
  /// it; see intern.hpp for the lifetime invariant).
  std::unique_ptr<MonitorSetArena> msets_;
};

}  // namespace mpx::observer
