// Vocabulary types of the computation lattice (paper §4): cuts, monitors,
// violations, options and statistics.  The OnlineAnalyzer builds the
// structure through the level-expansion engine in level_expand.hpp; the
// batch ComputationLattice drives an OnlineAnalyzer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "observer/causality.hpp"
#include "observer/global_state.hpp"

namespace mpx::observer {

/// Packed opaque monitor state.  The ptLTL synthesized monitors pack the
/// truth values of all subformulas into these 64 bits.
using MonitorState = std::uint64_t;

/// A safety monitor the lattice can run over every path in parallel.
/// Implementations must be deterministic functions of (state, globalState)
/// and must not mutate member state in advance()/isViolating(): the
/// lattice calls them once per (edge, monitor state), in an order that is
/// not a run of the program.
class LatticeMonitor {
 public:
  virtual ~LatticeMonitor() = default;

  /// Monitor state after seeing the initial global state.
  virtual MonitorState initial(const GlobalState& s) = 0;

  /// Monitor state after additionally seeing `s`.
  virtual MonitorState advance(MonitorState prev, const GlobalState& s) = 0;

  /// True if `m` witnesses a property violation.
  [[nodiscard]] virtual bool isViolating(MonitorState m) const = 0;

  /// Pruning hook (paper §4: "parts of the lattice which become
  /// non-relevant for the property to check can be garbage-collected
  /// while the analysis process continues").  Return false ONLY when no
  /// continuation from `m` can ever reach a violating state; the lattice
  /// then drops the (node, state) pair — sound, since any run through it
  /// is permanently safe.  Default: conservatively true.
  [[nodiscard]] virtual bool canEverViolate(MonitorState m) const {
    (void)m;
    return true;
  }

  /// How many of the 64 bits this monitor's states actually occupy.  The
  /// MonitorBus packs several monitors side by side in one MonitorState;
  /// a monitor that uses fewer bits (ptLTL monitors use one bit per
  /// subformula) should override so more components fit.  States must
  /// never exceed the declared width.
  [[nodiscard]] virtual unsigned stateBits() const { return 64; }
};

/// A consistent cut (k_1, ..., k_n).
struct Cut {
  std::vector<std::uint32_t> k;

  Cut() = default;
  explicit Cut(std::size_t threads) : k(threads, 0) {}

  [[nodiscard]] std::uint64_t level() const noexcept {
    std::uint64_t s = 0;
    for (const auto v : k) s += v;
    return s;
  }

  [[nodiscard]] Cut advanced(ThreadId j) const {
    Cut c = *this;
    ++c.k[j];
    return c;
  }

  friend bool operator==(const Cut&, const Cut&) = default;

  [[nodiscard]] std::size_t hash() const noexcept {
    std::size_t h = 1469598103934665603ull;
    for (const auto v : k) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 1099511628211ull;
    }
    return h;
  }

  /// "S21" style label as in the paper's Fig. 6 (concatenated indices).
  [[nodiscard]] std::string toString() const;
};

struct CutHash {
  std::size_t operator()(const Cut& c) const noexcept { return c.hash(); }
};

/// Persistent (shared-suffix) path witness: the run that led to a node.
struct PathNode {
  PathNode(EventRef e, std::shared_ptr<const PathNode> p)
      : event(e), parent(std::move(p)) {}
  /// Releases the parent chain iteratively.  A chain has one node per
  /// lattice level, and releasing a long run's chain recursively would
  /// overflow the stack.
  ~PathNode();

  EventRef event;
  /// Mutable so the destructor can detach it from a const node.
  mutable std::shared_ptr<const PathNode> parent;
};
using PathPtr = std::shared_ptr<const PathNode>;

/// Unwinds a witness chain into initial-to-final order.
[[nodiscard]] std::vector<EventRef> unwindPath(const PathPtr& path);

/// A predicted property violation: some run consistent with the causal
/// order drives the monitor into a violating state.
struct Violation {
  Cut cut;                    ///< where the violation was detected
  GlobalState state;          ///< the global state at that cut
  MonitorState monitorState;  ///< the violating monitor state
  std::vector<EventRef> path; ///< counterexample run from the initial state
};

enum class Retention : std::uint8_t {
  kSlidingWindow,  ///< keep only the current and next level (paper's mode)
  kFull,           ///< keep every level (small lattices: tests, rendering)
};

/// The degradation ladder (DESIGN.md §5c).  Under resource pressure the
/// engine steps down rung by rung instead of dying:
///   kFull         — exhaustive lattice, the verdict is SOUND.
///   kSampled      — causally-fair frontier sampling: a seeded hash ranks
///                   the cuts of an over-budget level and only the best
///                   `allowed` survive (the observed-execution cut always
///                   among them).  Deterministic across delivery orders.
///   kObservedOnly — only the observed execution's own cut survives per
///                   level; the analysis degenerates to single-trace
///                   monitoring (still sound for what it DOES report).
/// The rung recorded in LatticeStats is the deepest ever entered; entering
/// kObservedOnly is sticky for the rest of the run (no thrash).
enum class DegradationMode : std::uint8_t {
  kFull = 0,
  kSampled = 1,
  kObservedOnly = 2,
};

/// Why the ladder engaged (first trigger wins; kNone while kFull).
enum class BoundReason : std::uint8_t {
  kNone = 0,
  kMemoryBudget = 1,  ///< accounted bytes exceeded LatticeOptions::memoryBudgetBytes
  kMaxFrontier = 2,   ///< a level exceeded LatticeOptions::maxFrontier
};

[[nodiscard]] const char* toString(DegradationMode m) noexcept;
[[nodiscard]] const char* toString(BoundReason r) noexcept;

struct LatticeOptions {
  Retention retention = Retention::kSlidingWindow;
  /// Safety cap on level width; exceeded => stats.truncated.  The level
  /// that exceeds it is counted in the stats (levels, totalNodes) but is
  /// neither retained nor dispatched, and the run stops there.
  std::size_t maxNodesPerLevel = 1u << 22;
  /// Stop collecting violations after this many distinct witnesses.
  std::size_t maxViolations = 64;
  /// Record counterexample paths (costs one PathNode per node/monitor-state).
  bool recordPaths = true;
  /// Byte budget for the accounted working set (monitor-set arena + the
  /// two live frontiers with their states, under the deterministic byte
  /// model of budget.hpp).  When a
  /// freshly expanded level would push the accounted total past the
  /// budget, the degradation ladder sheds frontier nodes until the
  /// retained set fits (floor: the observed-execution cut).  0 = unlimited.
  std::size_t memoryBudgetBytes = 0;
  /// Hard cap on frontier width, enforced by the same ladder (sampling,
  /// not truncation — the analysis continues to the end).  0 = unlimited.
  std::size_t maxFrontier = 0;
  /// Seed of the causally-fair sampler.  The sampling decision is a pure
  /// function of (seed, level, cut), so any two runs over the same lattice
  /// with the same seed retain the same nodes regardless of message arrival
  /// order.
  std::uint64_t degradationSeed = 0x9e3779b97f4a7c15ull;
};

struct LatticeStats {
  std::size_t levels = 0;          ///< number of levels built (incl. level 0)
  std::size_t totalNodes = 0;      ///< lattice nodes (consistent cuts)
  std::size_t totalEdges = 0;      ///< lattice edges (events between cuts)
  std::size_t peakLevelWidth = 0;  ///< widest level
  std::size_t peakLiveNodes = 0;   ///< max nodes resident at once (≤ 2 levels
                                   ///< under sliding-window retention)
  std::size_t gcNodes = 0;         ///< nodes released when the sliding window
                                   ///< advanced past their level
  std::uint64_t pathCount = 0;     ///< number of multithreaded runs
  bool pathCountSaturated = false;
  bool truncated = false;
  std::size_t monitorStatesPeak = 0;  ///< max distinct monitor states per node
  std::size_t prunedMonitorStates = 0;  ///< (node, state) pairs GC'd because
                                        ///< the monitor can no longer violate
  bool approximated = false;  ///< the ladder shed nodes: absence of
                              ///< violations is best-effort only
  // How often an edge reached a cut that was already built.  Counted per
  // level once it is expanded, so both are pure functions of the lattice
  // (batch or online): internHits + internMisses == totalEdges.
  std::uint64_t internHits = 0;    ///< edges into an already-built cut
  std::uint64_t internMisses = 0;  ///< cuts built (states constructed)
  std::uint64_t msetInternHits = 0;    ///< monitor-state-set lookups deduped
  std::uint64_t msetInternMisses = 0;  ///< monitor-state-set inserts
  // Budget accounting + degradation ladder (budget.hpp, DESIGN.md §5c).
  std::uint64_t accountedBytes = 0;      ///< accounted working set after the
                                         ///< last completed level (post-shed)
  std::uint64_t peakAccountedBytes = 0;  ///< peak of the retained accounting
  std::uint64_t droppedNodes = 0;   ///< frontier nodes shed by the ladder
  std::uint64_t degradedAtLevel = 0;  ///< first level the ladder engaged (0 =
                                      ///< never; level 0 is never shed)
  DegradationMode degradation = DegradationMode::kFull;  ///< deepest rung
  BoundReason boundReason = BoundReason::kNone;

  /// True when the verdict is not exhaustive: some consistent runs were
  /// never examined (ladder or width-cap truncation).
  [[nodiscard]] bool bounded() const noexcept {
    return degradation != DegradationMode::kFull || truncated || approximated;
  }
};

/// One node of a fully-retained lattice (inspection/rendering).
struct LevelNode {
  Cut cut;
  GlobalState state;
  std::uint64_t pathCount = 0;
  std::vector<MonitorState> monitorStates;  ///< sorted, unique; empty if no
                                            ///< monitor was run
};

namespace detail {

/// One lattice node while its level is live.  The node owns its global
/// state: every path into a cut yields the same valuation, so the state is
/// built once, when the cut is first reached, and dies with its level.
struct FrontierNode {
  GlobalState state;
  std::uint64_t pathCount = 0;
  /// Reachable monitor states, each with one witness path.
  std::map<MonitorState, PathPtr> mstates;
  PathPtr anyPath;  ///< witness when no monitor is running
};

/// A live lattice level, keyed by cut.
using Frontier = std::unordered_map<Cut, FrontierNode, CutHash>;

inline std::uint64_t saturatingAdd(std::uint64_t a, std::uint64_t b,
                                   bool& sat) noexcept {
  const std::uint64_t s = a + b;
  if (s < a) {
    sat = true;
    return ~0ull;
  }
  return s;
}

}  // namespace detail

}  // namespace mpx::observer
