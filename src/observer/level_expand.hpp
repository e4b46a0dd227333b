// Level-expansion engine of the OnlineAnalyzer, the one level loop (the
// batch ComputationLattice drives an OnlineAnalyzer): given the current
// level (all cuts at level L, a detail::Level), build the next one (level
// L+1), feeding monitors, path witnesses, run counts and violations along
// the way.
//
// One loop over the level in canonical (sorted-by-cut) order, on the
// calling thread.  Witness selection and violation order are keep-first,
// so this fixed order makes both a pure function of the lattice: in
// particular they survive a checkpoint/restore round trip, which rebuilds
// the level with a different row layout.  Every statistic is a function of
// the lattice too: the built/reached tallies are taken from the finished
// level (cuts built == its size, the rest of the edges reached a cut
// already built).
//
// Each row holds its global state.  An edge writes the child's state only
// when it first inserts the cut (the parent's values with the written slot
// set); later edges into the same cut reuse it, which is sound because
// every path into a cut yields the same state.
//
// Monitor memo: LatticeMonitor::advance is a deterministic function of
// (monitor state, global state), and every edge into a cut sees the same
// global state, so advancing the same parent monitor state into the same
// child twice must give the same outcome.  applyEdge therefore advances
// each distinct (child cut, parent monitor state) pair once, records
// whether the successor was pruned, and replays that outcome for later
// edges: a pruned successor counts once more in prunedMonitorStates, a
// kept one is already present in the child (keep-first), exactly as a
// second advance would have found.
//
// Analysis plugins (analysis.hpp) hook in at two points: emitViolation
// routes each candidate violation through AnalysisBus::acceptViolation
// (the violation is recorded only if some owning plugin accepts), and the
// CALLERS dispatch each completed level's nodes via
// AnalysisBus::dispatchLevel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "observer/analysis.hpp"
#include "observer/intern.hpp"
#include "observer/lattice_types.hpp"
#include "observer/observer_metrics.hpp"

namespace mpx::observer::detail {

/// Appends one violation, respecting the cap, and counts it.  When `bus`
/// is non-null the candidate is first offered to the owning plugins and
/// dropped unless one accepts.  The Cut and GlobalState it carries are
/// built only once the cap admits it.
inline void emitViolation(std::vector<Violation>& violations, AnalysisBus* bus,
                          const LatticeOptions& opts, const std::uint32_t* cut,
                          std::size_t threads, const Value* state,
                          std::size_t slots, MonitorState nm,
                          const PathPtr& witness) {
  if (violations.size() >= opts.maxViolations) return;
  Violation v;
  v.cut.k.assign(cut, cut + threads);
  v.state.values.assign(state, state + slots);
  v.monitorState = nm;
  v.path = unwindPath(witness);
  if (bus != nullptr && !bus->acceptViolation(v)) return;
  violations.push_back(std::move(v));
  if constexpr (telemetry::kEnabled) {
    ObserverMetrics::get().violations.add(1);
  }
}

/// Folds one enabled event (edge) from row `row` of `from` into `out`,
/// reporting violating monitor states as they are first reached.  `scratch`
/// is the monitors' reusable global state (`slots` values).  Prune and
/// saturation side-stats land in `stats`.
inline void applyEdge(const Level& from, std::uint32_t row, ThreadId j,
                      const BufferedMessage& b, LatticeMonitor* mon,
                      const LatticeOptions& opts, AnalysisBus* bus, Level& out,
                      GlobalState& scratch, LatticeStats& stats,
                      std::vector<Violation>& violations) {
  const EventRef ref{j, from.cut(row)[j] + 1};
  const std::size_t slots = out.slots();
  const auto [child, inserted] = out.insertSuccessor(from, row, j);
  if (inserted) {
    // All paths into a cut yield the same state (writes to each variable
    // are totally ordered by ≺, so a consistent cut has a unique maximal
    // write per variable): build it from the first parent only.
    std::copy(from.state(row), from.state(row) + slots, out.state(child));
    if (b.slot != BufferedMessage::kNoSlot) {
      out.state(child)[b.slot] = b.msg.event.value;
    }
  }
  out.pathCount(child) = saturatingAdd(out.pathCount(child),
                                       from.pathCount(row),
                                       stats.pathCountSaturated);

  if (mon != nullptr) {
    bool staged = false;
    for (std::uint32_t e = from.firstEntry(row); e != Level::kEnd;
         e = from.entry(e).next) {
      const Level::Entry& parent = from.entry(e);
      const int seen = out.memoFind(child, parent.state);
      if (seen >= 0) {
        if (seen == 1) ++stats.prunedMonitorStates;
        continue;
      }
      if (!staged) {
        std::copy(out.state(child), out.state(child) + slots,
                  scratch.values.begin());
        staged = true;
      }
      const MonitorState nm = mon->advance(parent.state, scratch);
      const bool violating = mon->isViolating(nm);
      const bool pruned = !violating && !mon->canEverViolate(nm);
      out.memoAdd(child, parent.state, pruned);
      if (pruned) {
        ++stats.prunedMonitorStates;  // permanently safe: GC
        continue;
      }
      if (out.hasEntry(child, nm)) continue;
      PathPtr npath;
      if (opts.recordPaths) {
        npath = std::make_shared<const PathNode>(ref, parent.witness);
      }
      if (violating) {
        emitViolation(violations, bus, opts, out.cut(child), out.threads(),
                      out.state(child), slots, nm, npath);
      }
      out.addEntry(child, nm, std::move(npath));
    }
  } else if (opts.recordPaths && inserted) {
    out.anyPath(child) =
        std::make_shared<const PathNode>(ref, from.anyPath(row));
  }
}

/// Expands one level into `out` (empty, with the level's shape).  `next(cut, j)` returns thread j's candidate next message when
/// it exists AND is enabled at the cut whose components `cut` points at,
/// else nullptr.  `frontier.order()` must be current.  The edge count
/// lands in `edges`; prune/saturation side-stats land in `stats`;
/// violations in `violations`, filtered through `bus` when one is
/// attached.
template <typename NextFn>
void expandLevel(const Level& frontier, Level& out, LatticeMonitor* mon,
                 const LatticeOptions& opts, AnalysisBus* bus,
                 GlobalState& scratch, LatticeStats& stats,
                 std::vector<Violation>& violations, std::size_t& edges,
                 const NextFn& next) {
  edges = 0;
  const std::size_t threads = frontier.threads();
  // Canonical expansion order: sorted by cut.  Witness selection and
  // violation order are keep-first, so the row layout (discovery order,
  // which a checkpoint/restore round trip does not preserve) must not
  // decide them.  It is also the node order AnalysisBus::dispatchLevel
  // hands the plugins.
  for (const std::uint32_t row : frontier.order()) {
    const std::uint32_t* cut = frontier.cut(row);
    for (ThreadId j = 0; j < threads; ++j) {
      const BufferedMessage* b = next(cut, j);
      if (b == nullptr) continue;
      ++edges;
      applyEdge(frontier, row, j, *b, mon, opts, bus, out, scratch, stats,
                violations);
    }
  }
  if (mon != nullptr) {
    stats.monitorStatesPeak =
        std::max(stats.monitorStatesPeak, out.maxEntries());
  }
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
