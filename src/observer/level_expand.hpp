// Level-expansion engine of the OnlineAnalyzer, the one level loop (the
// batch ComputationLattice drives an OnlineAnalyzer): given the current
// frontier (all cuts at level L), produce the next frontier (level L+1),
// feeding monitors, path witnesses, run counts and violations along the
// way.
//
// Two execution modes:
//
//  * Serial (jobs == 1, the default): one loop over the frontier in
//    canonical (sorted-by-cut) order, so witness selection and violation
//    order are a pure function of the lattice — in particular they survive
//    a checkpoint/restore round trip, which rebuilds the frontier map with
//    a different internal layout.
//  * Parallel: the frontier's nodes are snapshotted in the same canonical
//    order and split into contiguous chunks, one per pool worker.  Each worker
//    expands its slice into a WORKER-LOCAL frontier (its own keep-first
//    dedup of cuts and monitor states); the merge then folds the local
//    frontiers together in chunk-index order with keep-first semantics and
//    emits violations as (cut, monitor-state) pairs first enter the merged
//    map.
//
// Determinism contract (asserted by tests/parallel/determinism_test.cpp):
// for any jobs count the parallel mode produces the SAME violation set
// (compared on (cut, state, monitorState)), the SAME LatticeStats, and the
// SAME retained levels as the serial mode.  Only the order in which
// violations are appended — and which equivalent witness path each one
// carries — may differ, because workers discover the same pairs in a
// different interleaving.  Every statistic is order-independent by
// construction: edge and prune counts partition over frontier nodes,
// pathCount folding is a commutative-associative saturating sum,
// monitorStatesPeak is a max over per-cut final sets, which the keep-first
// merge reproduces exactly, and the built/reached tallies are taken from
// the MERGED level (cuts built == its size, the rest of the edges reached
// a cut already built).
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
// AnalysisBus::dispatchLevel.  Both happen on the orchestrator thread
// only — workers never touch the bus.
//
// Thread-safety requirements on the inputs (all satisfied in-tree):
// NextFn and LatticeMonitor must be pure/const — workers call them
// concurrently; the StateSpace and the input frontier are only read.
// Workers write only their own local frontier and counters, so they share
// no mutable state and take no locks.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "observer/analysis.hpp"
#include "observer/intern.hpp"
#include "observer/lattice_types.hpp"
#include "observer/observer_metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace mpx::observer::detail {

/// Appends one violation, respecting the cap, and counts it.  When `bus`
/// is non-null the candidate is first offered to the owning plugins and
/// dropped unless one accepts.  Orchestrator thread only.
inline void emitViolation(std::vector<Violation>* violations, AnalysisBus* bus,
                          const LatticeOptions& opts, const Cut& cut,
                          const GlobalState& state, MonitorState nm,
                          const PathPtr& witness) {
  if (violations == nullptr || violations->size() >= opts.maxViolations) {
    return;
  }
  Violation v{cut, state, nm, unwindPath(witness)};
  if (bus != nullptr && !bus->acceptViolation(v)) return;
  violations->push_back(std::move(v));
  if constexpr (telemetry::kEnabled) {
    ObserverMetrics::get().violations.add(1);
  }
}

/// Per-chunk side counters folded into LatticeStats after the merge.
struct EdgeCounters {
  std::size_t edges = 0;
  std::size_t prunedMonitorStates = 0;
  bool pathCountSaturated = false;
};

/// Folds one enabled event (edge) into `out`.  When `violations` is
/// non-null, violating monitor states are reported as they are first
/// reached (serial mode); when null the caller scans for them at merge
/// time (worker mode).
inline void applyEdge(const Cut& cut, const FrontierNode& node, ThreadId j,
                      const trace::Message& m, const StateSpace& space,
                      LatticeMonitor* mon, const LatticeOptions& opts,
                      AnalysisBus* bus, Frontier& out, EdgeCounters& counters,
                      std::vector<Violation>* violations) {
  ++counters.edges;
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
                                  counters.pathCountSaturated);

  if (mon != nullptr) {
    for (const auto& [ms, witness] : node.mstates) {
      const MonitorState nm = mon->advance(ms, child.state);
      if (!mon->isViolating(nm) && !mon->canEverViolate(nm)) {
        ++counters.prunedMonitorStates;  // permanently safe: GC
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
/// side-stats land in `stats`; violations (if collecting) in `violations`,
/// filtered through `bus` when one is attached.  `pool` may be null
/// (always serial); parallel mode engages when the pool has >1 workers and
/// the frontier is at least opts.parallel.minFrontier.
template <typename NextFn>
Frontier expandLevel(const Frontier& frontier, std::size_t threads,
                     const StateSpace& space, LatticeMonitor* mon,
                     const LatticeOptions& opts, LatticeStats& stats,
                     std::vector<Violation>* violations, AnalysisBus* bus,
                     parallel::ThreadPool* pool, std::size_t& edges,
                     const NextFn& next) {
  Frontier result;
  EdgeCounters counters;

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

  const bool concurrent = pool != nullptr && pool->workers() > 1 &&
                          frontier.size() >= opts.parallel.minFrontier;
  if (!concurrent) {
    for (const auto* kv : items) {
      const auto& [cut, node] = *kv;
      for (ThreadId j = 0; j < threads; ++j) {
        const trace::Message* m = next(cut, j);
        if (m == nullptr) continue;
        applyEdge(cut, node, j, *m, space, mon, opts, bus, result, counters,
                  violations);
      }
    }
  } else {
    const std::size_t chunks = pool->workers();
    std::vector<Frontier> locals(chunks);
    std::vector<EdgeCounters> localCounters(chunks);
    pool->parallelFor(
        items.size(),
        [&](std::size_t begin, std::size_t end, std::size_t c) {
          Frontier& local = locals[c];
          EdgeCounters& lc = localCounters[c];
          for (std::size_t i = begin; i < end; ++i) {
            const auto& [cut, node] = *items[i];
            for (ThreadId j = 0; j < threads; ++j) {
              const trace::Message* m = next(cut, j);
              if (m == nullptr) continue;
              // Violations deferred to the merge: workers must not touch
              // the shared violation list, the plugin bus, or telemetry.
              applyEdge(cut, node, j, *m, space, mon, opts, nullptr, local,
                        lc, nullptr);
            }
          }
        });

    for (const EdgeCounters& lc : localCounters) {
      counters.edges += lc.edges;
      counters.prunedMonitorStates += lc.prunedMonitorStates;
      counters.pathCountSaturated |= lc.pathCountSaturated;
    }

    // Deterministic merge, chunk-index order, keep-first per (cut, nm).
    result = std::move(locals[0]);
    if (mon != nullptr && violations != nullptr) {
      // Everything in chunk 0's local frontier entered the merged map.
      for (const auto& [cut, child] : result) {
        for (const auto& [nm, witness] : child.mstates) {
          if (mon->isViolating(nm)) {
            emitViolation(violations, bus, opts, cut, child.state, nm,
                          witness);
          }
        }
      }
    }
    for (std::size_t c = 1; c < locals.size(); ++c) {
      Frontier& local = locals[c];
      while (!local.empty()) {
        auto nh = local.extract(local.begin());
        const auto found = result.find(nh.key());
        if (found == result.end()) {
          const auto pos = result.insert(std::move(nh)).position;
          if (mon != nullptr && violations != nullptr) {
            for (const auto& [nm, witness] : pos->second.mstates) {
              if (mon->isViolating(nm)) {
                emitViolation(violations, bus, opts, pos->first,
                              pos->second.state, nm, witness);
              }
            }
          }
          continue;
        }
        FrontierNode& child = found->second;
        FrontierNode& other = nh.mapped();
        child.pathCount = saturatingAdd(child.pathCount, other.pathCount,
                                        counters.pathCountSaturated);
        for (auto& [nm, witness] : other.mstates) {
          const auto [mit, fresh] =
              child.mstates.emplace(nm, std::move(witness));
          if (!fresh) continue;  // keep-first: earlier chunk's witness stands
          if (mon != nullptr && mon->isViolating(nm)) {
            emitViolation(violations, bus, opts, found->first, child.state,
                          nm, mit->second);
          }
        }
      }
    }
  }

  if (mon != nullptr) {
    for (const auto& [cut, child] : result) {
      stats.monitorStatesPeak =
          std::max(stats.monitorStatesPeak, child.mstates.size());
    }
  }
  stats.prunedMonitorStates += counters.prunedMonitorStates;
  stats.pathCountSaturated |= counters.pathCountSaturated;
  edges = counters.edges;
  return result;
}

/// Folds one expanded level into the edge tallies.  `built` is the size of
/// the merged level before any shedding: each of its cuts was built by one
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
