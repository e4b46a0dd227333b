// Level-expansion engine of the OnlineAnalyzer, the one level loop (the
// batch ComputationLattice drives an OnlineAnalyzer): given the current
// frontier (all cuts at level L), produce the next frontier (level L+1),
// feeding monitors, path witnesses, run counts and violations along the
// way.
//
// One loop over the frontier in canonical (sorted-by-cut) order, on the
// calling thread.  Witness selection and violation order are keep-first,
// so this fixed order makes both a pure function of the lattice: in
// particular they survive a checkpoint/restore round trip, which rebuilds
// the frontier map with a different internal layout.  Every statistic is a
// function of the lattice too: the built/reached tallies are taken from
// the finished level (cuts built == its size, the rest of the edges
// reached a cut already built).
//
// Every FrontierNode owns its global state.  An edge builds the child's
// state only when it first inserts the cut (the parent's values with the
// written slot set); later edges into the same cut reuse it, which is
// sound because every path into a cut yields the same state.
//
// Analysis plugins (analysis.hpp) hook in at two points: emitViolation
// routes each candidate violation through AnalysisBus::acceptViolation
// (the violation is recorded only if some owning plugin accepts), and the
// CALLERS dispatch each completed level's nodes via
// AnalysisBus::dispatchLevel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "observer/analysis.hpp"
#include "observer/intern.hpp"
#include "observer/lattice_types.hpp"
#include "observer/observer_metrics.hpp"

namespace mpx::observer::detail {

/// Appends one violation, respecting the cap, and counts it.  When `bus`
/// is non-null the candidate is first offered to the owning plugins and
/// dropped unless one accepts.
inline void emitViolation(std::vector<Violation>& violations, AnalysisBus* bus,
                          const LatticeOptions& opts, const Cut& cut,
                          const GlobalState& state, MonitorState nm,
                          const PathPtr& witness) {
  if (violations.size() >= opts.maxViolations) return;
  Violation v{cut, state, nm, unwindPath(witness)};
  if (bus != nullptr && !bus->acceptViolation(v)) return;
  violations.push_back(std::move(v));
  if constexpr (telemetry::kEnabled) {
    ObserverMetrics::get().violations.add(1);
  }
}

/// Folds one enabled event (edge) into `out`, reporting violating monitor
/// states as they are first reached.  Prune and saturation side-stats land
/// in `stats`.
inline void applyEdge(const Cut& cut, const FrontierNode& node, ThreadId j,
                      const trace::Message& m, const StateSpace& space,
                      LatticeMonitor* mon, const LatticeOptions& opts,
                      AnalysisBus* bus, Frontier& out, LatticeStats& stats,
                      std::vector<Violation>& violations) {
  const EventRef ref{j, cut.k[j] + 1};

  auto [it, inserted] = out.try_emplace(cut.advanced(j));
  FrontierNode& child = it->second;
  if (inserted) {
    // All paths into a cut yield the same state (writes to each variable
    // are totally ordered by ≺, so a consistent cut has a unique maximal
    // write per variable): build it from the first parent only.
    child.state = node.state;
    if (const auto slot = space.slotOf(m.event.var)) {
      child.state.values[*slot] = m.event.value;
    }
  }
  child.pathCount = saturatingAdd(child.pathCount, node.pathCount,
                                  stats.pathCountSaturated);

  if (mon != nullptr) {
    for (const auto& [ms, witness] : node.mstates) {
      const MonitorState nm = mon->advance(ms, child.state);
      if (!mon->isViolating(nm) && !mon->canEverViolate(nm)) {
        ++stats.prunedMonitorStates;  // permanently safe: GC
        continue;
      }
      if (child.mstates.contains(nm)) continue;
      PathPtr npath;
      if (opts.recordPaths) {
        npath = std::make_shared<const PathNode>(ref, witness);
      }
      child.mstates.emplace(nm, npath);
      if (mon->isViolating(nm)) {
        emitViolation(violations, bus, opts, it->first, child.state, nm,
                      npath);
      }
    }
  } else if (opts.recordPaths && inserted) {
    child.anyPath = std::make_shared<const PathNode>(ref, node.anyPath);
  }
}

/// Expands one level.  `next(cut, j)` returns thread j's candidate next
/// message when it exists AND is enabled at `cut`, else nullptr.  Returns
/// the new frontier; edge count lands in `edges`; prune/saturation/peak
/// side-stats land in `stats`; violations in `violations`,
/// filtered through `bus` when one is attached.
template <typename NextFn>
Frontier expandLevel(const Frontier& frontier, std::size_t threads,
                     const StateSpace& space, LatticeMonitor* mon,
                     const LatticeOptions& opts, LatticeStats& stats,
                     std::vector<Violation>& violations, AnalysisBus* bus,
                     std::size_t& edges, const NextFn& next) {
  Frontier result;
  edges = 0;

  // Canonical expansion order: sorted by cut.  Witness selection and
  // violation order are keep-first, so iterating the unordered frontier
  // directly would make both a function of container HISTORY — which a
  // checkpoint/restore round trip does not preserve (a restored frontier
  // is rebuilt in sorted order, not discovery order).  Sorting first makes
  // them a pure function of the lattice itself; it is also the same node
  // order AnalysisBus::dispatchLevel hands the plugins.
  std::vector<const std::pair<const Cut, FrontierNode>*> items;
  items.reserve(frontier.size());
  for (const auto& kv : frontier) items.push_back(&kv);
  std::sort(items.begin(), items.end(), [](const auto* a, const auto* b) {
    return a->first.k < b->first.k;
  });

  for (const auto* kv : items) {
    const auto& [cut, node] = *kv;
    for (ThreadId j = 0; j < threads; ++j) {
      const trace::Message* m = next(cut, j);
      if (m == nullptr) continue;
      ++edges;
      applyEdge(cut, node, j, *m, space, mon, opts, bus, result, stats,
                violations);
    }
  }

  if (mon != nullptr) {
    for (const auto& [cut, child] : result) {
      stats.monitorStatesPeak =
          std::max(stats.monitorStatesPeak, child.mstates.size());
    }
  }
  return result;
}

/// Folds one expanded level into the edge tallies.  `built` is the size of
/// the expanded level before any shedding: each of its cuts was built by one
/// edge, and every other edge reached a cut already built.
inline void recordLevelEdges(LatticeStats& stats, std::size_t edges,
                             std::size_t built) {
  stats.totalEdges += edges;
  stats.internMisses += built;
  stats.internHits += edges - built;
}

/// Copies the monitor-set arena tallies into the stats block and publishes
/// the edge hit rate (end of run).
inline void recordInternStats(LatticeStats& stats,
                              const MonitorSetArena& msets) {
  const InternStats m = msets.stats();
  stats.msetInternHits = m.hits;
  stats.msetInternMisses = m.misses;
  if constexpr (telemetry::kEnabled) {
    const std::uint64_t edges = stats.internHits + stats.internMisses;
    ObserverMetrics::get().internHitRate.set(static_cast<std::int64_t>(
        edges == 0 ? 0 : 100 * stats.internHits / edges));
  }
}

}  // namespace mpx::observer::detail
