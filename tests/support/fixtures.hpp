// Shared test fixtures: canonical causality graphs for the paper's two
// examples and generic program-to-observer plumbing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/instrumentor.hpp"
#include "observer/causality.hpp"
#include "observer/global_state.hpp"
#include "program/corpus.hpp"
#include "program/scheduler.hpp"
#include "trace/channel.hpp"
#include "trace/var_table.hpp"

namespace mpx::testing {

struct ObservedComputation {
  program::Program prog;
  program::ExecutionRecord rec;
  observer::CausalityGraph graph;
  observer::StateSpace space;
};

/// Runs `prog` under `sched`, instruments writes of `tracked`, and returns
/// the finalized causality graph plus state space.
inline ObservedComputation observe(program::Program prog,
                                   program::Scheduler& sched,
                                   const std::vector<std::string>& tracked) {
  ObservedComputation out;
  out.prog = std::move(prog);
  program::Executor ex(out.prog, sched);
  out.rec = ex.run();

  std::unordered_set<VarId> ids;
  for (const auto& name : tracked) ids.insert(out.prog.vars.id(name));
  core::Instrumentor instr(core::RelevancePolicy::writesOf(ids), out.graph);
  for (const auto& e : out.rec.events) instr.onEvent(e);
  out.graph.finalize();
  out.space = observer::StateSpace::byNames(out.prog.vars, tracked);
  return out;
}

/// The paper's Example 1 (Fig. 5) computation, from the observed schedule.
inline ObservedComputation landingComputation() {
  program::FixedScheduler sched(program::corpus::landingObservedSchedule());
  return observe(program::corpus::landingController(), sched,
                 {"landing", "approved", "radio"});
}

/// The paper's Example 2 (Fig. 6) computation.
inline ObservedComputation xyzComputation() {
  program::FixedScheduler sched(program::corpus::xyzObservedSchedule());
  return observe(program::corpus::xyzProgram(), sched, {"x", "y", "z"});
}

/// The global state at the cut with per-thread counts `k`, folded without
/// the lattice: each tracked variable takes the value of its latest
/// included write in the observed order.  Writes to one variable are
/// totally ordered by causality and the observed order extends it, so
/// this is the cut's unique valuation.
inline observer::GlobalState foldedState(const observer::CausalityGraph& g,
                                         const observer::StateSpace& space,
                                         const std::vector<std::uint32_t>& k) {
  observer::GlobalState s(space.initialValues());
  for (const observer::EventRef& ref : g.observedOrder()) {
    if (ref.index > k[ref.thread]) continue;
    const trace::Event& e = g.message(ref).event;
    if (const auto slot = space.slotOf(e.var)) s.values[*slot] = e.value;
  }
  return s;
}

/// A message stream built directly, without a program or Algorithm A.
struct MessageStream {
  trace::VarTable vars;
  observer::StateSpace space;
  std::vector<trace::Message> msgs;
};

/// The wide-lattice shape: `rounds` rounds in which each of four threads
/// writes three times in a seeded order, twice to its own variable v<t>
/// and once to the shared variable s (value t + 1).  Own-variable writes
/// are mutually concurrent; each write of s follows the previous one, so
/// the threads stay in step and the lattice is wide (about 100 cuts per
/// level) but never grows wider with the number of rounds.  All five
/// variables are tracked.
inline MessageStream ownVariableStream(std::size_t rounds,
                                       std::uint64_t seed) {
  constexpr ThreadId kThreads = 4;
  MessageStream out;
  std::vector<std::string> names;
  std::vector<VarId> own;
  for (ThreadId t = 0; t < kThreads; ++t) {
    names.push_back("v" + std::to_string(t));
    own.push_back(out.vars.intern(names.back(), 0));
  }
  const VarId shared = out.vars.intern("s", 0);
  names.push_back("s");
  out.space = observer::StateSpace::byNames(out.vars, names);

  std::mt19937_64 rng(seed);
  std::vector<vc::VectorClock> clocks(kThreads, vc::VectorClock(kThreads));
  vc::VectorClock lastShared(kThreads);
  std::vector<Value> count(kThreads, 0);
  std::vector<std::pair<ThreadId, bool>> round;
  for (std::size_t r = 0; r < rounds; ++r) {
    round.clear();
    for (ThreadId t = 0; t < kThreads; ++t) {
      for (int i = 0; i < 3; ++i) round.emplace_back(t, i == 0);
    }
    std::shuffle(round.begin(), round.end(), rng);
    for (const auto& [t, toShared] : round) {
      vc::VectorClock& c = clocks[t];
      if (toShared) c.joinWith(lastShared);
      c.set(t, c[t] + 1);
      if (toShared) lastShared = c;
      trace::Message m;
      m.event.kind = trace::EventKind::kWrite;
      m.event.thread = t;
      m.event.var = toShared ? shared : own[t];
      m.event.value = toShared ? static_cast<Value>(t + 1) : ++count[t];
      m.event.localSeq = c[t];
      m.event.globalSeq = out.msgs.size() + 1;
      m.clock = c;
      out.msgs.push_back(std::move(m));
    }
  }
  return out;
}

}  // namespace mpx::testing
