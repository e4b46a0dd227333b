// Memory-budget accounting and the degradation ladder (DESIGN.md §5c).
//
// The paper's sliding window bounds the lattice to two consecutive levels,
// but a level's width is still worst-case exponential in thread count, so a
// wide (or hostile) trace could OOM the observer.  This module makes that
// pressure a first-class, explicitly-reported bound instead of a crash:
//
//   accounted = MonitorSetArena bytes
//             + bytes of the previous (still live) frontier
//             + bytes of the freshly expanded frontier
//
// Each frontier row holds its global state, so the frontier bytes include
// the states; nothing else grows with the length of the trace.
//
// under a DETERMINISTIC byte model: every container node is charged a
// fixed, documented cost plus its payload (see the k*Bytes constants and
// kInternNodeBytes in intern.hpp).  The model is a platform-stable
// estimate, not malloc truth — what matters is that the same lattice
// always produces the same accounted totals, for any message arrival
// order, so budget decisions are reproducible.
//
// When the accounted total exceeds LatticeOptions::memoryBudgetBytes (or a
// level exceeds maxFrontier), enforceBudget() sheds nodes from the freshly
// expanded frontier down the ladder of lattice_types.hpp:
//
//   kFull → kSampled:  a seeded hash over (degradationSeed, level, cut)
//     ranks the level's cuts and only the best-ranked `allowed` survive —
//     "causally fair": survival is independent of path counts and of
//     discovery order, so no systematic bias toward particular
//     interleavings.  The observed execution's own cut ALWAYS survives.
//   kSampled → kObservedOnly:  when even a handful of cuts no longer fits,
//     only the observed-execution cut survives each level; the analysis
//     degenerates to single-trace monitoring.  This rung is sticky.
//
// The observed-execution cut at level L is recovered without any arrival-
// order bookkeeping: the events' globalSeq stamps give the execution's
// total order, and the prefix cut of length L is exactly the consistent
// cut minimizing max(globalSeq of its per-thread last events).  The
// online analyzer supplies that key via a callback.
//
// Soundness: shedding only ever REMOVES runs from consideration.  Every
// violation the engine still reports carries a genuine witness run, so a
// BOUNDED report's violations are a subset of the exhaustive (oracle)
// set — never a superset.  What is lost is exhaustiveness, which the
// report stamps honestly (SOUND vs BOUNDED, analysis/report.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "observer/intern.hpp"
#include "observer/lattice_types.hpp"
#include "observer/observer_metrics.hpp"

namespace mpx::observer::detail {

// The byte model below was fitted to the map-based frontier that predates
// the flat rows of detail::Level (one hash-map node and one rb-tree node
// per monitor entry).  It is kept unchanged so budget decisions and the
// accounted totals stay identical: it is a model, not malloc truth.

/// Byte model of one live frontier row: hash-map node + node payload
/// (state vector header, path count, map header, witness pointer) + its
/// share of the bucket array.
inline constexpr std::uint64_t kFrontierNodeBytes = 112;
/// Per-component cost of the cut key stored in the node.
inline constexpr std::uint64_t kCutComponentBytes = sizeof(std::uint32_t);
/// One (MonitorState, witness) entry of a node (rb-tree node + key +
/// shared_ptr).
inline constexpr std::uint64_t kMonitorEntryBytes = 64;
/// One witness PathNode + its control block, charged per monitor entry
/// when paths are recorded (suffix sharing makes this an upper bound per
/// entry, which is the safe direction for a budget).
inline constexpr std::uint64_t kPathNodeBytes = 48;

/// Accounted bytes of one row without its monitor entries.
inline std::uint64_t rowBaseBytes(const Level& level) noexcept {
  return kFrontierNodeBytes + level.threads() * kCutComponentBytes +
         level.slots() * sizeof(Value);
}

/// Accounted bytes of one monitor entry.
inline std::uint64_t entryBytes(bool recordPaths) noexcept {
  return kMonitorEntryBytes + (recordPaths ? kPathNodeBytes : 0);
}

/// Accounted bytes of one row under the byte model.
inline std::uint64_t frontierNodeBytes(const Level& level, std::uint32_t row,
                                       bool recordPaths) noexcept {
  return rowBaseBytes(level) + level.entryCount(row) * entryBytes(recordPaths);
}

/// Accounted bytes of a whole level: the sum of frontierNodeBytes over its
/// rows, from the level's row and entry tallies.
inline std::uint64_t frontierBytes(const Level& level,
                                   bool recordPaths) noexcept {
  return level.size() * rowBaseBytes(level) +
         level.entryTotal() * entryBytes(recordPaths);
}

/// splitmix64 finalizer: the sampler's rank function.  Pure, so the set of
/// survivors is a function of (seed, level, cut) only.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Applies the degradation ladder to a freshly expanded level.
///
/// `index` is the 1-based index of the level `frontier` sits at;
/// `arenaBytesNow` = MonitorSetArena::bytes();
/// `carryBytes` = accounted bytes of the previous level (still live while
/// this one was expanded); `observedKey(cut)` must return the maximum
/// globalSeq over the per-thread last events of the cut whose components
/// `cut` points at (0 for the zero cut) — the key whose minimum identifies
/// the observed-execution cut.
///
/// On return `frontier` holds only the survivors, and stats carries the
/// post-shed accounting (accountedBytes, peakAccountedBytes, droppedNodes,
/// degradation, boundReason, degradedAtLevel, approximated).  Deterministic
/// across delivery orders — see the file comment.
template <typename ObservedKeyFn>
void enforceBudget(Level& frontier, const LatticeOptions& opts,
                   LatticeStats& stats, std::uint64_t index,
                   std::uint64_t arenaBytesNow, std::uint64_t carryBytes,
                   const ObservedKeyFn& observedKey) {
  const std::uint64_t newBytes = frontierBytes(frontier, opts.recordPaths);
  const std::uint64_t fixed = arenaBytesNow + carryBytes;
  const std::size_t threads = frontier.threads();
  const auto cutLess = [&frontier, threads](std::uint32_t a,
                                            std::uint32_t b) {
    return std::lexicographical_compare(
        frontier.cut(a), frontier.cut(a) + threads, frontier.cut(b),
        frontier.cut(b) + threads);
  };

  std::size_t maxCount = frontier.size();
  BoundReason reason = BoundReason::kNone;
  if (stats.degradation == DegradationMode::kObservedOnly) {
    // Sticky deepest rung: once the analysis fell back to the observed
    // path it stays there (re-widening could not recover the runs already
    // lost, and would thrash the budget).
    maxCount = 1;
    reason = stats.boundReason;
  }
  if (opts.maxFrontier > 0 && maxCount > opts.maxFrontier) {
    maxCount = opts.maxFrontier;
    reason = BoundReason::kMaxFrontier;
  }
  const bool overBudget = opts.memoryBudgetBytes > 0 && !frontier.empty() &&
                          fixed + newBytes > opts.memoryBudgetBytes;

  if (!frontier.empty() && (maxCount < frontier.size() || overBudget)) {
    // The observed-execution cut: minimal (observedKey, cut) — kept
    // unconditionally so the run the program ACTUALLY took is analyzed to
    // the end on every rung.  It is the floor the budget is measured
    // against: if even the floor exceeds the budget nothing more can be
    // shed, and peakAccountedBytes shows by how much it overshoots.
    std::uint32_t observed = Level::kEnd;
    std::uint64_t observedK = 0;
    for (std::uint32_t r = 0; r < frontier.size(); ++r) {
      const std::uint64_t key = observedKey(frontier.cut(r));
      if (observed == Level::kEnd || key < observedK ||
          (key == observedK && cutLess(r, observed))) {
        observed = r;
        observedK = key;
      }
    }

    // Rank the rest by the seeded hash; survival is independent of path
    // counts and of the order nodes were discovered in.
    const std::uint64_t levelSalt = mix64(opts.degradationSeed ^ index);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
    order.reserve(frontier.size());
    for (std::uint32_t r = 0; r < frontier.size(); ++r) {
      if (r == observed) continue;
      order.emplace_back(
          mix64(levelSalt ^ static_cast<std::uint64_t>(
                                Cut::hashCut(frontier.cut(r), threads))),
          r);
    }
    std::sort(order.begin(), order.end(),
              [&cutLess](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return cutLess(a.second, b.second);  // deterministic tie-break
              });

    // Greedy EXACT fill in rank order: survivors are the longest ranked
    // prefix whose actual bytes fit next to the fixed costs (so post-shed
    // accounted never exceeds the budget unless the floor alone does).
    std::uint64_t budgetLeft = ~std::uint64_t{0};
    if (opts.memoryBudgetBytes > 0) {
      budgetLeft = opts.memoryBudgetBytes > fixed
                       ? opts.memoryBudgetBytes - fixed
                       : 0;
    }
    std::vector<std::uint32_t> kept{observed};
    std::uint64_t keptBytes =
        frontierNodeBytes(frontier, observed, opts.recordPaths);
    bool memoryBound = keptBytes > budgetLeft;
    for (const auto& [rank, r] : order) {
      if (kept.size() >= maxCount) break;
      const std::uint64_t nb = frontierNodeBytes(frontier, r, opts.recordPaths);
      if (keptBytes + nb > budgetLeft) {
        memoryBound = true;
        break;
      }
      keptBytes += nb;
      kept.push_back(r);
    }
    const std::size_t dropped = frontier.size() - kept.size();
    if (memoryBound && kept.size() < maxCount) reason = BoundReason::kMemoryBudget;
    frontier.keepRows(std::move(kept));

    if (dropped > 0) {
      // Degradation bookkeeping reflects RUN SHEDDING only: a frontier that
      // fits under every cap stays SOUND even when the arena alone pushes
      // the accounted total over budget (nothing more could be shed).
      const DegradationMode rung = frontier.size() <= 1
                                       ? DegradationMode::kObservedOnly
                                       : DegradationMode::kSampled;
      stats.droppedNodes += dropped;
      stats.approximated = true;  // absence of violations is best-effort now
      if (stats.degradation < rung) stats.degradation = rung;
      if (stats.boundReason == BoundReason::kNone) stats.boundReason = reason;
      if (stats.degradedAtLevel == 0) stats.degradedAtLevel = index;
      if constexpr (telemetry::kEnabled) {
        ObserverMetrics& tm = ObserverMetrics::get();
        tm.degradedLevels.add(1);
        tm.degradedNodesDropped.add(dropped);
        tm.degradedMode.recordMax(static_cast<std::int64_t>(rung));
      }
    }
  }

  stats.accountedBytes = fixed + frontierBytes(frontier, opts.recordPaths);
  stats.peakAccountedBytes =
      std::max(stats.peakAccountedBytes, stats.accountedBytes);
  if constexpr (telemetry::kEnabled) {
    ObserverMetrics& tm = ObserverMetrics::get();
    tm.budgetLimit.set(static_cast<std::int64_t>(opts.memoryBudgetBytes));
    tm.budgetAccounted.set(static_cast<std::int64_t>(stats.accountedBytes));
    tm.budgetPeak.recordMax(static_cast<std::int64_t>(stats.peakAccountedBytes));
  }
}

}  // namespace mpx::observer::detail
