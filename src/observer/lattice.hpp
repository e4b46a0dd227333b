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
// ComputationLattice is the batch special case of the online analysis
// (online.hpp), where every event is already there: each run feeds the
// finalized graph's messages to a fresh OnlineAnalyzer in observed order,
// then ends the trace, and copies the analyzer's stats and violations out.
// The vocabulary types (Cut, Violation, LatticeStats, ...) live in
// lattice_types.hpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "observer/causality.hpp"
#include "observer/global_state.hpp"
#include "observer/lattice_types.hpp"
#include "observer/online.hpp"

namespace mpx::observer {

class ComputationLattice {
 public:
  /// `graph` must be finalized.  `space` defines which variables make up
  /// the global state (with their initial values).
  ComputationLattice(const CausalityGraph& graph, StateSpace space,
                     LatticeOptions opts = {});

  /// Builds the lattice without a monitor (structure, states, run counts).
  const LatticeStats& build();

  /// Builds the lattice while checking `mon` over all runs in parallel.
  /// Violations (up to opts.maxViolations distinct witnesses) are appended
  /// to `violations`.
  const LatticeStats& check(LatticeMonitor& mon,
                            std::vector<Violation>& violations);

  /// Builds the lattice while running a whole plugin bus (analysis.hpp):
  /// the bus's packed monitor rides the nodes, candidate violations are
  /// filtered through the owning plugins, completed levels are dispatched
  /// to node-observing plugins, and plugin finish() hooks run at the end.
  /// Accepted violations are appended to `violations`.
  const LatticeStats& analyze(AnalysisBus& bus,
                              std::vector<Violation>& violations);

  [[nodiscard]] const LatticeStats& stats() const noexcept { return stats_; }

  /// Retained levels of the last run (only with Retention::kFull; see
  /// OnlineAnalyzer::levels).  levels()[L] is sorted by cut for
  /// deterministic iteration.
  [[nodiscard]] const std::vector<std::vector<LevelNode>>& levels() const;

  /// Renders the full lattice as an ASCII diagram (requires kFull).
  [[nodiscard]] std::string render() const;

  /// Renders as Graphviz dot (requires kFull).
  [[nodiscard]] std::string renderDot() const;

 private:
  /// Feeds the graph to `analyzer`, ends the trace, and copies the
  /// analyzer's stats (and violations, when collecting) out.
  const LatticeStats& run(std::unique_ptr<OnlineAnalyzer> analyzer,
                          std::vector<Violation>* violations);

  const CausalityGraph* graph_;
  StateSpace space_;
  LatticeOptions opts_;
  LatticeStats stats_;
  /// The last run's analyzer, kept for levels().  Finished, so it never
  /// touches the run's monitor or bus again.
  std::unique_ptr<OnlineAnalyzer> analyzer_;
};

}  // namespace mpx::observer
