// Hash-consing arena for the per-node monitor-state sets handed to
// analysis plugins (NodeView::monitorStates).  Identical sets are extremely
// common — neighbouring cuts usually carry the same reachable-monitor-state
// set — so each distinct set is stored once and a plugin may key caches on
// the pointer.  Global states are NOT interned: each frontier row holds its
// state (detail::Level, lattice_types.hpp), because almost every cut of a
// wide lattice carries a valuation no other cut has.
//
// Invariants (DESIGN.md §5b):
//   * An interned pointer stays valid for the arena's lifetime (node-based
//     std::unordered_set storage; no rehash ever moves elements).  One
//     arena per OnlineAnalyzer (so one per ComputationLattice run).
//   * Single-threaded: sets are interned in sorted-by-cut order when a
//     level completes, so hit/miss totals are a function of the lattice.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace mpx::observer {

/// Monotonic hit/miss tally of one arena.
struct InternStats {
  std::uint64_t hits = 0;    ///< intern() found the value already present
  std::uint64_t misses = 0;  ///< intern() inserted a new value
  std::size_t size = 0;      ///< distinct values resident
};

/// Accounted bytes per resident hash-table node beyond its payload: the
/// element itself plus its share of bucket array and chaining pointers.
/// Part of the deterministic byte MODEL of DESIGN.md §5c — a platform-
/// stable estimate the budget enforcer charges, not malloc truth.  The
/// arena charges through it, so accounted totals are identical across
/// platforms.
inline constexpr std::uint64_t kInternNodeBytes = 64;

/// Hash-consing arena for sorted monitor-state sets (single-threaded: the
/// engine interns sets when a level completes).
class MonitorSetArena {
 public:
  MonitorSetArena() = default;
  MonitorSetArena(const MonitorSetArena&) = delete;
  MonitorSetArena& operator=(const MonitorSetArena&) = delete;

  /// `states` must be sorted ascending (a level row's monitor entries are
  /// chained in that order, so callers get this for free).
  const std::vector<std::uint64_t>* intern(std::vector<std::uint64_t> states) {
    const std::uint64_t cost = kInternNodeBytes +
                               sizeof(std::vector<std::uint64_t>) +
                               states.size() * sizeof(std::uint64_t);
    const auto [it, inserted] = set_.insert(std::move(states));
    if (inserted) {
      ++misses_;
      bytes_ += cost;
    } else {
      ++hits_;
    }
    return &*it;
  }

  [[nodiscard]] InternStats stats() const {
    return InternStats{hits_, misses_, set_.size()};
  }

  /// Accounted bytes of every resident set under the byte model.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

  /// Every resident set, sorted lexicographically (deterministic across
  /// runs; checkpoint support).
  [[nodiscard]] std::vector<const std::vector<std::uint64_t>*> snapshotSorted()
      const {
    std::vector<const std::vector<std::uint64_t>*> out;
    out.reserve(set_.size());
    for (const auto& v : set_) out.push_back(&v);
    std::sort(out.begin(), out.end(),
              [](const std::vector<std::uint64_t>* a,
                 const std::vector<std::uint64_t>* b) { return *a < *b; });
    return out;
  }

  void clear() {
    set_.clear();
    hits_ = 0;
    misses_ = 0;
    bytes_ = 0;
  }

  void addHits(std::uint64_t n) { hits_ += n; }

 private:
  struct VecHash {
    std::size_t operator()(const std::vector<std::uint64_t>& v) const noexcept {
      std::size_t h = 1469598103934665603ull;
      for (const std::uint64_t x : v) {
        h ^= static_cast<std::size_t>(x) + 0x9e3779b97f4a7c15ull + (h << 6) +
             (h >> 2);
        h *= 1099511628211ull;
      }
      return h;
    }
  };
  std::unordered_set<std::vector<std::uint64_t>, VecHash> set_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace mpx::observer
