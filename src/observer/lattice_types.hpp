// Vocabulary types of the computation lattice (paper §4): cuts, monitors,
// violations, options and statistics.  The OnlineAnalyzer builds the
// structure through the level-expansion engine in level_expand.hpp; the
// batch ComputationLattice drives an OnlineAnalyzer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
    return hashCut(k.data(), k.size());
  }

  /// Cut::hash of the cut (k[0], ..., k[n-1]), for cuts stored as rows.
  [[nodiscard]] static std::size_t hashCut(const std::uint32_t* k,
                                           std::size_t n) noexcept {
    std::size_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= k[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 1099511628211ull;
    }
    return h;
  }

  /// "S21" style label as in the paper's Fig. 6 (concatenated indices).
  [[nodiscard]] std::string toString() const;
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

/// A buffered message with the state slot its event writes, resolved once
/// on arrival (kNoSlot: the variable is not tracked).
struct BufferedMessage {
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  trace::Message msg;
  std::uint32_t slot = kNoSlot;
};

/// One live lattice level, stored flat (DESIGN.md §5b).  Row r is one
/// consistent cut: its `threads` cut components, its `slots` state values,
/// its run count, a chain of (monitor state, witness) entries sorted by
/// monitor state, and the witness used when no monitor runs.  Every path
/// into a cut yields the same valuation, so the state is written once,
/// when the cut is first reached.
///
/// Rows are found by open addressing on an additive cut key
/// (sum of k_j * step(j)), so the key of a successor cut is the parent's
/// key plus one constant.  The analyzer keeps two levels and swaps them;
/// clear() keeps every array's capacity, so a steady-state level costs no
/// allocation beyond its witness PathNodes, and it empties only the table
/// slots its rows hold, so a level costs what its own width costs however
/// wide an earlier level was.
///
/// While a level is being built it also keeps a memo of the parent monitor
/// states already advanced into each row (see applyEdge, level_expand.hpp).
class Level {
 public:
  static constexpr std::uint32_t kEnd = ~std::uint32_t{0};

  struct Entry {
    MonitorState state = 0;
    PathPtr witness;
    std::uint32_t next = kEnd;  ///< next entry of the row, by state
  };

  /// Empties the level and fixes the row shape.
  void reset(std::size_t threads, std::size_t slots) {
    threads_ = threads;
    slots_ = slots;
    clear();
  }

  /// Drops every row, releasing the witnesses; capacity is kept.
  void clear() {
    for (const Row& row : rows_) table_[row.slot] = 0;
    cuts_.clear();
    states_.clear();
    rows_.clear();
    any_.clear();
    entries_.clear();
    memo_.clear();
    order_.clear();
    entryTotal_ = 0;
    maxEntries_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }

  [[nodiscard]] const std::uint32_t* cut(std::uint32_t row) const {
    return cuts_.data() + std::size_t{row} * threads_;
  }
  [[nodiscard]] Value* state(std::uint32_t row) {
    return states_.data() + std::size_t{row} * slots_;
  }
  [[nodiscard]] const Value* state(std::uint32_t row) const {
    return states_.data() + std::size_t{row} * slots_;
  }
  [[nodiscard]] std::uint64_t& pathCount(std::uint32_t row) {
    return rows_[row].paths;
  }
  [[nodiscard]] std::uint64_t pathCount(std::uint32_t row) const {
    return rows_[row].paths;
  }
  [[nodiscard]] PathPtr& anyPath(std::uint32_t row) { return any_[row]; }
  [[nodiscard]] const PathPtr& anyPath(std::uint32_t row) const {
    return any_[row];
  }

  /// The row's monitor entries: firstEntry, then Entry::next until kEnd.
  [[nodiscard]] std::uint32_t firstEntry(std::uint32_t row) const {
    return rows_[row].head;
  }
  [[nodiscard]] const Entry& entry(std::uint32_t e) const {
    return entries_[e];
  }
  [[nodiscard]] std::size_t entryCount(std::uint32_t row) const {
    return rows_[row].count;
  }
  /// Monitor entries over all rows.
  [[nodiscard]] std::size_t entryTotal() const noexcept { return entryTotal_; }
  /// Most monitor entries any row has held since the last clear().
  [[nodiscard]] std::size_t maxEntries() const noexcept { return maxEntries_; }

  /// Row of `cut`, appended (zero state and run count, no entries) when
  /// absent; .second tells whether it was.
  std::pair<std::uint32_t, bool> insert(const std::uint32_t* cut) {
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < threads_; ++j) key += cut[j] * step(j);
    return insertKeyed(cut, kNoBump, key);
  }

  /// insert() of row `row` of `from` advanced by one event of thread j.
  /// `from` must have this level's shape.
  std::pair<std::uint32_t, bool> insertSuccessor(const Level& from,
                                                 std::uint32_t row,
                                                 ThreadId j) {
    return insertKeyed(from.cut(row), j, from.rows_[row].key + step(j));
  }

  [[nodiscard]] bool hasEntry(std::uint32_t row, MonitorState ms) const {
    std::uint32_t e = rows_[row].head;
    while (e != kEnd && entries_[e].state < ms) e = entries_[e].next;
    return e != kEnd && entries_[e].state == ms;
  }

  /// Adds (ms, witness) in sorted position; false (nothing added) when the
  /// row already holds ms.
  bool addEntry(std::uint32_t row, MonitorState ms, PathPtr witness) {
    std::uint32_t prev = kEnd;
    std::uint32_t e = rows_[row].head;
    while (e != kEnd && entries_[e].state < ms) {
      prev = e;
      e = entries_[e].next;
    }
    if (e != kEnd && entries_[e].state == ms) return false;
    const auto added = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{ms, std::move(witness), e});
    (prev == kEnd ? rows_[row].head : entries_[prev].next) = added;
    const std::size_t count = ++rows_[row].count;
    ++entryTotal_;
    maxEntries_ = std::max(maxEntries_, count);
    return true;
  }

  /// Memo of the monitor states already advanced into `row`: -1 when `in`
  /// was not, else 1 if its successor was pruned and 0 if it was kept.
  [[nodiscard]] int memoFind(std::uint32_t row, MonitorState in) const {
    for (std::uint32_t m = rows_[row].memo; m != kEnd; m = memo_[m].next) {
      if (memo_[m].in == in) return memo_[m].pruned ? 1 : 0;
    }
    return -1;
  }
  void memoAdd(std::uint32_t row, MonitorState in, bool pruned) {
    memo_.push_back(Memo{in, rows_[row].memo, pruned});
    rows_[row].memo = static_cast<std::uint32_t>(memo_.size() - 1);
  }

  /// Keeps only the listed rows (distinct, any order) and releases the
  /// witnesses of the rest.  The surviving rows keep their relative order.
  void keepRows(std::vector<std::uint32_t> keep) {
    std::sort(keep.begin(), keep.end());
    for (const Row& row : rows_) table_[row.slot] = 0;
    std::size_t next = 0;
    for (std::uint32_t r = 0; r < rows_.size(); ++r) {
      if (next < keep.size() && keep[next] == r) {
        const auto to = static_cast<std::uint32_t>(next++);
        if (to == r) continue;
        std::copy(cut(r), cut(r) + threads_,
                  cuts_.begin() + std::size_t{to} * threads_);
        std::copy(state(r), state(r) + slots_, state(to));
        rows_[to] = rows_[r];
        any_[to] = std::move(any_[r]);
        continue;
      }
      for (std::uint32_t e = rows_[r].head; e != kEnd; e = entries_[e].next) {
        entries_[e].witness.reset();
      }
      entryTotal_ -= rows_[r].count;
    }
    cuts_.resize(keep.size() * threads_);
    states_.resize(keep.size() * slots_);
    rows_.resize(keep.size());
    any_.resize(keep.size());
    order_.clear();
    for (std::uint32_t r = 0; r < rows_.size(); ++r) place(r);
  }

  /// Computes order() (the rows sorted lexicographically by cut) and the
  /// per-thread bounds low()/high().
  void sortRows() {
    const auto n = static_cast<std::uint32_t>(rows_.size());
    low_.assign(threads_, n == 0 ? 0 : ~std::uint32_t{0});
    high_.assign(threads_, 0);
    for (std::uint32_t r = 0; r < n; ++r) {
      const std::uint32_t* c = cut(r);
      for (std::size_t j = 0; j < threads_; ++j) {
        low_[j] = std::min(low_[j], c[j]);
        high_[j] = std::max(high_[j], c[j]);
      }
    }
    order_.resize(n);
    for (std::uint32_t r = 0; r < n; ++r) order_[r] = r;
    std::sort(order_.begin(), order_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return std::lexicographical_compare(
                    cut(a), cut(a) + threads_, cut(b), cut(b) + threads_);
              });
  }
  /// The rows sorted by cut, as of the last sortRows().
  [[nodiscard]] const std::vector<std::uint32_t>& order() const noexcept {
    return order_;
  }
  /// Per-thread minimum and maximum of k_j over the rows, as of the last
  /// sortRows() (all zero for an empty level).
  [[nodiscard]] const std::vector<std::uint32_t>& low() const noexcept {
    return low_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& high() const noexcept {
    return high_;
  }

 private:
  struct Row {
    std::uint64_t key = 0;
    std::uint64_t paths = 0;
    std::uint32_t head = kEnd;
    std::uint32_t count = 0;
    std::uint32_t memo = kEnd;
    std::uint32_t slot = 0;  ///< the table slot holding this row
  };
  struct Memo {
    MonitorState in = 0;
    std::uint32_t next = kEnd;
    bool pruned = false;
  };

  /// insertKeyed's `bump` when the cut is taken as given.
  static constexpr std::size_t kNoBump = ~std::size_t{0};

  static std::uint64_t mixKey(std::uint64_t x) noexcept {
    x ^= x >> 31;
    x *= 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    return x;
  }

  /// Thread j's key increment: an odd constant, the same for every level.
  static std::uint64_t step(std::size_t j) noexcept {
    return mixKey(0x243f6a8885a308d3ull + (j + 1) * 0x9e3779b97f4a7c15ull) |
           1u;
  }

  /// Enters row r into the table (which has room).
  void place(std::uint32_t r) {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = mixKey(rows_[r].key) & mask;
    while (table_[i] != 0) i = (i + 1) & mask;
    table_[i] = r + 1;
    rows_[r].slot = static_cast<std::uint32_t>(i);
  }

  /// Finds or appends the row of cut `c` advanced by one event of thread
  /// `bump` (kNoBump: `c` itself), whose key is `key`.
  std::pair<std::uint32_t, bool> insertKeyed(const std::uint32_t* c,
                                             std::size_t bump,
                                             std::uint64_t key) {
    if (2 * (rows_.size() + 1) > table_.size()) {
      table_.assign(std::max<std::size_t>(8, 2 * table_.size()), 0u);
      for (std::uint32_t r = 0; r < rows_.size(); ++r) place(r);
    }
    const auto same = [&](std::uint32_t r) {
      const std::uint32_t* k = cut(r);
      for (std::size_t t = 0; t < threads_; ++t) {
        if (k[t] != c[t] + (t == bump ? 1u : 0u)) return false;
      }
      return true;
    };
    const std::size_t mask = table_.size() - 1;
    std::size_t i = mixKey(key) & mask;
    for (; table_[i] != 0; i = (i + 1) & mask) {
      const std::uint32_t r = table_[i] - 1;
      if (rows_[r].key == key && same(r)) return {r, false};
    }
    const auto r = static_cast<std::uint32_t>(rows_.size());
    table_[i] = r + 1;
    cuts_.insert(cuts_.end(), c, c + threads_);
    if (bump != kNoBump) ++cuts_[std::size_t{r} * threads_ + bump];
    states_.resize(states_.size() + slots_);
    rows_.push_back(
        Row{key, 0, kEnd, 0, kEnd, static_cast<std::uint32_t>(i)});
    any_.emplace_back();
    return {r, true};
  }

  std::size_t threads_ = 0;
  std::size_t slots_ = 0;
  std::vector<std::uint32_t> cuts_;     ///< rows x threads
  std::vector<Value> states_;           ///< rows x slots
  std::vector<Row> rows_;
  std::vector<PathPtr> any_;            ///< witness when no monitor runs
  std::vector<Entry> entries_;
  std::vector<Memo> memo_;
  std::vector<std::uint32_t> table_;    ///< row + 1, 0 = empty; power of 2
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> low_;
  std::vector<std::uint32_t> high_;
  std::size_t entryTotal_ = 0;
  std::size_t maxEntries_ = 0;
};

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
