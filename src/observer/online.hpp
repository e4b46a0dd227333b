// Online, incremental lattice analysis (paper §4):
//
//   "Since events are received incrementally from the instrumented program,
//    one can buffer them at the observer's side and then build the lattice
//    on a level-by-level basis in a top-down manner, as the events become
//    available.  The observer's analysis process can also be performed
//    incrementally, so that parts of the lattice which become non-relevant
//    for the property to check can be garbage-collected while the analysis
//    process continues."
//
// OnlineAnalyzer is a MessageSink: messages arrive one at a time, in ANY
// order (Theorem 3 makes per-thread positions recoverable from the clocks).
// After each arrival it advances the lattice as many whole levels as the
// buffered messages allow, runs the monitor over the new level, reports
// violations immediately, and garbage-collects the previous level and
// every message no frontier cut can reach again.  Per-level bookkeeping
// costs O(threads), not O(messages received), so a long stream is
// analyzed in time linear in its length, with a message buffer bounded by
// the live window (DESIGN.md §5f).  This is the only level loop: the
// offline ComputationLattice (lattice.hpp) is a driver that feeds a
// finalized graph's messages in observed order, then calls endOfTrace().
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "observer/checkpoint.hpp"
#include "observer/global_state.hpp"
#include "observer/intern.hpp"
#include "observer/lattice_types.hpp"
#include "trace/channel.hpp"

namespace mpx::observer {

class AnalysisBus;

class OnlineAnalyzer final : public trace::MessageSink {
 public:
  /// `monitor` may be null (structure-only mode).  Violations are appended
  /// to an internal list as soon as they are discovered.
  ///
  /// `threads` is the number of threads of the instrumented program.  The
  /// paper's setting ("we only consider a fixed number of threads", §2):
  /// without it the analyzer could not know whether a level is complete —
  /// an as-yet-silent thread might still contribute a concurrent event to
  /// it.  (Dynamically created threads are announced by their spawner
  /// before their first event, so a dynamic system can conservatively pass
  /// the maximum and let absent threads be closed by endOfTrace().)
  OnlineAnalyzer(StateSpace space, std::size_t threads,
                 LatticeMonitor* monitor, LatticeOptions opts = {});

  /// Plugin-bus form: the bus's packed monitor rides the lattice,
  /// candidate violations are filtered through the owning plugins, every
  /// completed level is dispatched to node-observing plugins, and plugin
  /// finish() hooks run when the analysis finishes.  `bus` must outlive
  /// the analyzer.
  OnlineAnalyzer(StateSpace space, std::size_t threads, AnalysisBus& bus,
                 LatticeOptions opts = {});

  /// Feed one message (any arrival order).  Advances the lattice as far as
  /// the buffered messages permit.
  void onMessage(const trace::Message& m) override;

  /// Declare the stream complete: threads send nothing further.  Required
  /// to finish — a frontier cut at the end of a thread's stream is only
  /// known to be maximal once the stream is known to be over.  Throws if
  /// buffered messages have gaps.
  void endOfTrace();

  /// Violations discovered so far (earliest level first).
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }

  /// Number of completed lattice levels (level 0 counts once the analyzer
  /// is constructed).
  [[nodiscard]] std::uint64_t levelsCompleted() const noexcept {
    return stats_.levels;
  }

  /// True once every buffered event has been consumed after endOfTrace().
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  [[nodiscard]] const LatticeStats& stats() const noexcept { return stats_; }

  /// Retained levels (only with Retention::kFull; throws std::logic_error
  /// otherwise).  levels()[L] holds level L's nodes sorted by cut.  A level
  /// that trips the width cap is not retained, and a restore() starts the
  /// view afresh (retained levels are not part of the checkpoint).
  [[nodiscard]] const std::vector<std::vector<LevelNode>>& levels() const;

  /// Messages received but not yet folded into the frontier: the sum over
  /// threads j of (messages of j received - consumedK()[j]).
  [[nodiscard]] std::size_t pendingMessages() const noexcept {
    return pending_;
  }

  /// Messages held in memory: the pending ones plus the consumed ones the
  /// frontier can still reach (thread j's messages from the minimum
  /// frontier index of j upward).  Bounded by the live window, not by the
  /// length of the trace.
  [[nodiscard]] std::size_t bufferedMessages() const noexcept;

  /// Per-thread consumption watermark: consumedK()[j] is the largest local
  /// sequence number of thread j over the current frontier cuts (messages
  /// 1..consumedK()[j] of thread j have all been folded into some frontier
  /// cut).  A frame whose per-thread max indices are all <= this vector
  /// has been fully analyzed — the daemon's emit-to-analyze lag is
  /// measured against it.  Size == declared thread count; all zeros
  /// before level 1.  Budget shedding can move an entry backwards.
  [[nodiscard]] const std::vector<LocalSeq>& consumedK() const noexcept {
    return consumedK_;
  }

  /// Serializes the complete analyzer state — the buffered live window, the
  /// distinct states of the live frontier, the monitor-set arena, the live
  /// frontier (with its witness-path DAG), stats and violations — so an identically-constructed analyzer can restore()
  /// and continue to a byte-identical report.  Plugin state is NOT
  /// included; the session checkpoints each plugin's blob beside this one
  /// (Analysis::checkpoint).  Call only between messages (never from
  /// inside a dispatch).
  void checkpoint(ckpt::Writer& w) const;

  /// Inverse of checkpoint() on a freshly constructed analyzer with the
  /// same (space, threads, monitor/bus, options).  Frontier nodes copy
  /// their states out of the blob's state section; blobs written when that
  /// section held every state the run had visited restore the same way.  A
  /// blob whose message section still holds consumed messages (written
  /// before they were released) restores to the same state; those
  /// messages are freed.  The frontier's accounted bytes are recomputed
  /// from the restored frontier, and a blob whose stored tally disagrees is
  /// rejected.
  /// Returns false on any version/bounds/decode mismatch — the input is an
  /// untrusted snapshot file, and a failed restore leaves the analyzer
  /// unusable (discard it).
  [[nodiscard]] bool restore(ckpt::Reader& r);

 private:
  /// Both public constructors delegate here, so level 0 sees the bus (its
  /// violation filter and node dispatch) like every later level.
  OnlineAnalyzer(StateSpace space, std::size_t threads,
                 LatticeMonitor* monitor, AnalysisBus* bus,
                 LatticeOptions opts);

  /// The k-th (1-based) message of thread j, if present.
  [[nodiscard]] const detail::BufferedMessage* find(ThreadId j,
                                                    LocalSeq k) const;

  /// Advance whole levels while every needed next-event is available (or
  /// known absent because the trace ended).
  void tryAdvance();
  [[nodiscard]] bool canExpand() const;
  void expandOneLevel();
  /// Thread j's message k_j + 1 for the cut `cut` points at, when it is
  /// buffered and enabled there.
  [[nodiscard]] const detail::BufferedMessage* nextAt(const std::uint32_t* cut,
                                                      ThreadId j) const;
  /// Updates consumedK_/pending_ for the new frontier and frees every
  /// message below its per-thread minimum index.
  void settleFrontier();
  /// Max globalSeq over the per-thread last events of the cut `cut` points
  /// at — the budget enforcer's observed-execution key (see budget.hpp).
  /// Every event a frontier cut includes has already arrived, so the
  /// lookup never misses.
  [[nodiscard]] std::uint64_t observedPathKey(const std::uint32_t* cut) const;
  /// Copies frontier_ into retained_[level] under Retention::kFull.
  void retainLevel(std::uint64_t level);
  /// Marks the analysis finished: snapshots intern stats and runs the
  /// plugins' finish() hooks (once).
  void finalize();

  StateSpace space_;
  LatticeMonitor* monitor_;
  AnalysisBus* bus_;
  LatticeOptions opts_;
  MonitorSetArena msets_;
  /// buffered_[j][k] = thread j's k-th message, for k >= minK_[j] (sparse
  /// until gaps fill).  Lower indices are freed: every frontier cut has
  /// k_j >= minK_[j], expansion reads only index k_j + 1, and the budget's
  /// observed-path key reads index k_j.
  std::vector<std::unordered_map<LocalSeq, detail::BufferedMessage>> buffered_;
  /// prefix_[j] = largest m such that thread j's messages 1..m have all
  /// arrived.  A message with index <= prefix_[j] is a duplicate.
  std::vector<LocalSeq> prefix_;
  /// Per-thread max frontier index (see consumedK()).
  std::vector<LocalSeq> consumedK_;
  /// Per-thread min frontier index: the release floor.  Never decreases,
  /// because each level's cuts are successors of the previous level's.
  std::vector<LocalSeq> minK_;
  std::size_t pending_ = 0;
  bool ended_ = false;
  bool finished_ = false;
  /// The live level and the one being built; swapped after each level.
  /// They sit on the heap so the swap moves two pointers, and so the
  /// analyzer object stays under glibc's 1 KiB large-request size: a larger
  /// object's allocation first merges every small chunk freed since, which
  /// made a session built right after another analyzer's teardown pay for
  /// that analyzer's witness nodes (0.1 ms for a 16k-message chain).
  std::unique_ptr<detail::Level> frontier_;
  std::unique_ptr<detail::Level> next_;
  /// The monitors' global state, refilled per edge (monitors take a
  /// GlobalState; rows hold raw values).
  GlobalState scratch_;
  /// Accounted bytes of frontier_ (budget.hpp byte model), maintained so
  /// each level's enforcement sees the previous frontier's carry cost.
  std::uint64_t liveFrontierBytes_ = 0;
  LatticeStats stats_;
  std::vector<Violation> violations_;
  std::vector<std::vector<LevelNode>> retained_;
};

}  // namespace mpx::observer
