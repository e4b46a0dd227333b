// Heap allocations of the online analyzer in steady state, counted by a
// replaced global operator new.  Each test feeds the first half of a stream,
// then counts the allocations made while the second half is analyzed:
// the two lattice levels reuse their arrays, so what remains per node is
// the witness PathNode (when paths are recorded) and, per message, the
// buffered message's hash-map node.
//
// This binary replaces operator new for the whole process, so it is built
// on its own and kept out of the sanitizer runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "logic/monitor.hpp"
#include "logic/parser.hpp"
#include "observer/online.hpp"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

void* countedAlloc(std::size_t n) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mpx::observer {
namespace {

struct Tally {
  std::uint64_t allocations = 0;
  std::uint64_t nodes = 0;
  std::uint64_t messages = 0;
};

/// Feeds the first half of `msgs`, then counts the allocations, lattice
/// nodes and messages of the second half.
Tally secondHalf(OnlineAnalyzer& analyzer,
                 const std::vector<trace::Message>& msgs) {
  const std::size_t half = msgs.size() / 2;
  for (std::size_t i = 0; i < half; ++i) analyzer.onMessage(msgs[i]);
  const std::uint64_t nodesBefore = analyzer.stats().totalNodes;
  const std::uint64_t before = gAllocations.load();
  for (std::size_t i = half; i < msgs.size(); ++i) analyzer.onMessage(msgs[i]);
  Tally t;
  t.allocations = gAllocations.load() - before;
  t.nodes = analyzer.stats().totalNodes - nodesBefore;
  t.messages = msgs.size() - half;
  return t;
}

TEST(SteadyStateAllocations, OwnVariableShapeCheckedWithWitnesses) {
  const auto stream = mpx::testing::ownVariableStream(200, 7);
  logic::SynthesizedMonitor monitor(
      logic::SpecParser(stream.space).parse("historically (s <= 4)"));
  LatticeOptions opts;
  opts.recordPaths = true;
  OnlineAnalyzer analyzer(stream.space, 4, &monitor, opts);
  const Tally t = secondHalf(analyzer, stream.msgs);
  ASSERT_GT(t.nodes, 10000u);
  EXPECT_LE(static_cast<double>(t.allocations) / t.nodes, 1.1)
      << t.allocations << " allocations for " << t.nodes << " nodes";
}

TEST(SteadyStateAllocations, OwnVariableShapeStructureOnly) {
  const auto stream = mpx::testing::ownVariableStream(200, 7);
  LatticeOptions opts;
  opts.recordPaths = false;
  OnlineAnalyzer analyzer(stream.space, 4, nullptr, opts);
  const Tally t = secondHalf(analyzer, stream.msgs);
  ASSERT_GT(t.nodes, 10000u);
  EXPECT_LE(static_cast<double>(t.allocations) / t.nodes, 0.1)
      << t.allocations << " allocations for " << t.nodes << " nodes";
}

TEST(SteadyStateAllocations, TwoThreadChainCheckedWithWitnesses) {
  // Threads 0 and 1 write x in turn, each write ordered after the previous
  // one: the lattice is a chain with one node per message.
  trace::VarTable vars;
  const VarId x = vars.intern("x", 0);
  const StateSpace space = StateSpace::byNames(vars, {"x"});
  std::vector<trace::Message> msgs;
  vc::VectorClock clock(2);
  for (std::size_t i = 0; i < 4000; ++i) {
    const auto t = static_cast<ThreadId>(i % 2);
    clock.set(t, clock[t] + 1);
    trace::Message m;
    m.event.kind = trace::EventKind::kWrite;
    m.event.thread = t;
    m.event.var = x;
    m.event.value = static_cast<Value>(i);
    m.event.localSeq = clock[t];
    m.event.globalSeq = i + 1;
    m.clock = clock;
    msgs.push_back(std::move(m));
  }
  logic::SynthesizedMonitor monitor(
      logic::SpecParser(space).parse("historically (x >= 0)"));
  OnlineAnalyzer analyzer(space, 2, &monitor);
  const Tally t = secondHalf(analyzer, msgs);
  ASSERT_EQ(t.nodes, t.messages);
  EXPECT_LE(static_cast<double>(t.allocations) / t.messages, 2.1)
      << t.allocations << " allocations for " << t.messages << " messages";
}

}  // namespace
}  // namespace mpx::observer
