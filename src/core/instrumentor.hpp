// Algorithm A — the multithreaded vector clock instrumentation algorithm
// (paper Fig. 2), the paper's main contribution.
//
//   ALGORITHM A.  INPUT: event e generated by thread t_i
//     1. if e is relevant then V_i[i] <- V_i[i] + 1
//     2. if e is a read of shared variable x then
//          V_i   <- max{V_i, V^w_x}
//          V^a_x <- max{V^a_x, V_i}
//     3. if e is a write of shared variable x then
//          V^w_x <- V^a_x <- V_i <- max{V^a_x, V_i}
//     4. if e is relevant then send message <e, i, V_i> to observer
//
// Lock acquire/release, notify, wait-resume, thread start/exit are writes
// of their associated shared (dummy) variables (paper §3.1), so step 3
// applies to them; this is how synchronization induces the expected
// happens-before edges without any additional machinery.
//
// The instrumentor supports dynamically appearing threads and variables
// (paper §2: "can be easily extended to systems consisting of a variable
// number of threads"): clocks grow lazily and absent components read 0.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/relevance.hpp"
#include "trace/channel.hpp"
#include "trace/event.hpp"
#include "vc/vector_clock.hpp"

namespace mpx::core {

class Instrumentor {
 public:
  /// Clock work counters, accumulated per instrumentor (not via the
  /// telemetry registry, which would merge the figures of every
  /// instrumentor in the process; perfbench reads them per run).
  struct ClockStats {
    std::uint64_t joins = 0;           ///< joinWith calls (steps 2-3)
    std::uint64_t joinEntriesTouched = 0;  ///< component slots examined
    std::uint64_t staleJoins = 0;      ///< joins that changed nothing
  };

  /// `sink` receives the <e, i, V_i> messages for relevant events.
  Instrumentor(RelevancePolicy relevance, trace::MessageSink& sink)
      : relevance_(std::move(relevance)), sink_(&sink) {}

  /// Pre-size clock tables (optional; everything also grows lazily).
  void reserve(std::size_t threads, std::size_t vars);

  /// Causality projection: accesses of these variables still tick and emit
  /// (steps 1 and 4) but do NOT update the variable clocks (steps 2-3).
  ///
  /// The paper's ≺ deliberately orders ALL conflicting accesses of a
  /// variable (reordering them could change the computation), so two
  /// same-variable accesses are never concurrent under the full relation.
  /// Predictive race detection therefore asks a weaker question — "are the
  /// two accesses ordered by program order and synchronization ALONE?" —
  /// which is obtained by excluding the race-candidate variables from the
  /// causality while keeping lock/condition variables in (the jPredictor
  /// refinement of this paper's technique).
  void excludeFromCausality(std::unordered_set<VarId> vars) {
    causalityExcluded_ = std::move(vars);
  }

  /// Feed one event of the observed execution.  Events must arrive in the
  /// execution's total order M (the instrumentor sits inside the program,
  /// before any channel reordering).
  void onEvent(const trace::Event& e);

  /// The thread clock V_i.
  [[nodiscard]] const vc::VectorClock& threadClock(ThreadId t) const;
  /// The access clock V^a_x.
  [[nodiscard]] const vc::VectorClock& accessClock(VarId x) const;
  /// The write clock V^w_x.
  [[nodiscard]] const vc::VectorClock& writeClock(VarId x) const;

  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept {
    return eventsProcessed_;
  }
  [[nodiscard]] std::uint64_t messagesEmitted() const noexcept {
    return messagesEmitted_;
  }

  [[nodiscard]] const ClockStats& clockStats() const noexcept {
    return clockStats_;
  }

 private:
  void ensureThread(ThreadId t);
  void ensureVar(VarId x);
  void noteJoin(vc::JoinStats js) noexcept {
    ++clockStats_.joins;
    clockStats_.joinEntriesTouched += js.entriesTouched;
    if (!js.changed) ++clockStats_.staleJoins;
  }

  RelevancePolicy relevance_;
  trace::MessageSink* sink_;
  std::unordered_set<VarId> causalityExcluded_;
  std::vector<vc::VectorClock> vi_;  ///< V_i, by thread
  std::vector<vc::VectorClock> va_;  ///< V^a_x, by variable
  std::vector<vc::VectorClock> vw_;  ///< V^w_x, by variable
  ClockStats clockStats_;
  std::uint64_t eventsProcessed_ = 0;
  std::uint64_t messagesEmitted_ = 0;
  static const vc::VectorClock kZero;
};

}  // namespace mpx::core
