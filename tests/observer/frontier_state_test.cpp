// Frontier nodes own their global states.  Every node's state is its cut's
// valuation, folded here without the lattice; the edge tallies partition
// the edges identically for batch and online expansion; and neither the
// accounted working set nor a checkpoint grows with the length of the
// stream, only with the live frontier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "../support/fixtures.hpp"
#include "logic/monitor.hpp"
#include "logic/parser.hpp"
#include "observer/analysis.hpp"
#include "observer/checkpoint.hpp"
#include "observer/online.hpp"
#include "program/corpus.hpp"

namespace mpx::observer {
namespace {

using mpx::testing::foldedState;
using mpx::testing::MessageStream;
using mpx::testing::ObservedComputation;
using mpx::testing::ownVariableStream;

/// The paper's two examples plus random 3-thread programs.
std::vector<ObservedComputation> computations() {
  std::vector<ObservedComputation> out;
  out.push_back(mpx::testing::landingComputation());
  out.push_back(mpx::testing::xyzComputation());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    program::corpus::RandomProgramOptions opts;
    opts.threads = 3;
    opts.vars = 2;
    opts.opsPerThread = 5;
    program::RandomScheduler sched(seed * 7 + 3);
    out.push_back(mpx::testing::observe(
        program::corpus::randomProgram(seed, opts), sched, {"g0", "g1"}));
  }
  return out;
}

/// Messages of a finalized graph in a seeded arrival order.
std::vector<trace::Message> shuffledMessages(const CausalityGraph& g,
                                             std::uint64_t seed) {
  std::vector<trace::Message> out;
  for (const auto& ref : g.observedOrder()) out.push_back(g.message(ref));
  std::mt19937_64 rng(seed);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

/// Records every dispatched node's cut and state.
class StateRecorder final : public Analysis {
 public:
  [[nodiscard]] std::string name() const override { return "states"; }
  [[nodiscard]] std::string kind() const override { return "states"; }
  [[nodiscard]] bool wantsNodes() const override { return true; }
  void onNode(const NodeView& node) override {
    nodes_.emplace_back(node.cut->k, *node.state);
  }
  [[nodiscard]] AnalysisReport report() const override {
    return AnalysisReport{name(), kind(), 0, ""};
  }

  std::vector<std::pair<std::vector<std::uint32_t>, GlobalState>> nodes_;
};

TEST(FrontierState, RetainedNodesHoldTheirCutsValuation) {
  for (const auto& c : computations()) {
    LatticeOptions opts;
    opts.retention = Retention::kFull;
    ComputationLattice lattice(c.graph, c.space, opts);
    const LatticeStats& stats = lattice.build();
    std::size_t nodes = 0;
    for (const auto& level : lattice.levels()) {
      for (const LevelNode& node : level) {
        ++nodes;
        EXPECT_EQ(node.state, foldedState(c.graph, c.space, node.cut.k))
            << node.cut.toString();
      }
    }
    EXPECT_EQ(nodes, stats.totalNodes);
  }
}

TEST(FrontierState, OnlineNodesHoldTheirCutsValuation) {
  for (const auto& c : computations()) {
    for (const std::uint64_t seed : {1u, 4u}) {
      StateRecorder recorder;
      AnalysisBus bus({&recorder});
      OnlineAnalyzer online(c.space, c.graph.threadCount(), bus);
      for (const auto& m : shuffledMessages(c.graph, seed)) {
        online.onMessage(m);
      }
      online.endOfTrace();
      ASSERT_TRUE(online.finished());
      EXPECT_EQ(recorder.nodes_.size(), online.stats().totalNodes);
      for (const auto& [k, state] : recorder.nodes_) {
        EXPECT_EQ(state, foldedState(c.graph, c.space, k)) << "seed " << seed;
      }
    }
  }
}

TEST(FrontierState, EdgeTalliesAgreeAcrossModes) {
  for (const auto& c : computations()) {
    // maxFrontier 2: the ladder drops cuts on wide levels.
    for (const std::size_t maxFrontier : {std::size_t{0}, std::size_t{2}}) {
      std::vector<LatticeStats> runs;
      LatticeOptions opts;
      opts.maxFrontier = maxFrontier;
      ComputationLattice batch(c.graph, c.space, opts);
      runs.push_back(batch.build());
      OnlineAnalyzer online(c.space, c.graph.threadCount(), nullptr, opts);
      for (const auto& m : shuffledMessages(c.graph, 11)) {
        online.onMessage(m);
      }
      online.endOfTrace();
      runs.push_back(online.stats());
      const LatticeStats& ref = runs.front();
      EXPECT_GT(ref.internMisses, 0u);
      if (maxFrontier == 0) {
        // Every cut but the initial one was built exactly once.
        EXPECT_EQ(ref.internMisses, ref.totalNodes - 1);
      } else {
        // Shed cuts were built, then dropped.
        EXPECT_GE(ref.internMisses, ref.totalNodes - 1);
      }
      for (const LatticeStats& s : runs) {
        EXPECT_EQ(s.internHits + s.internMisses, s.totalEdges);
        EXPECT_EQ(s.internHits, ref.internHits);
        EXPECT_EQ(s.internMisses, ref.internMisses);
        EXPECT_EQ(s.totalEdges, ref.totalEdges);
      }
    }
  }
}

// --- memory and checkpoints bounded by the live frontier -----------------

constexpr const char* kSharedSpec = "[*] (s <= 4)";

/// Feeds `stream` to a fresh analyzer checking kSharedSpec.
struct Fed {
  explicit Fed(const MessageStream& stream, LatticeOptions opts = {})
      : mon(logic::SpecParser(stream.space).parse(kSharedSpec)),
        online(stream.space, 4, &mon, opts) {}
  logic::SynthesizedMonitor mon;
  OnlineAnalyzer online;
};

std::vector<std::uint8_t> blobOf(const OnlineAnalyzer& a) {
  ckpt::Writer w;
  a.checkpoint(w);
  return w.take();
}

/// Where the state section and the frontier's state references lie in an
/// OnlineAnalyzer checkpoint blob (the layout OnlineAnalyzer::checkpoint
/// writes).
struct BlobLayout {
  std::size_t statesBegin = 0;  ///< offset of the state count
  std::size_t statesEnd = 0;    ///< offset just past the last state
  std::vector<std::vector<Value>> states;
  std::vector<std::size_t> nodeStateAt;  ///< offset of each node's index
  std::vector<std::uint64_t> nodeState;  ///< each node's index
};

BlobLayout layoutOf(const std::vector<std::uint8_t>& blob) {
  ckpt::Reader r(blob);
  const auto at = [&] { return blob.size() - r.remaining(); };
  BlobLayout out;
  (void)r.u8();  // layout version
  const std::uint64_t threads = r.u64();
  (void)r.boolean();  // ended
  (void)r.boolean();  // finished
  (void)r.u64();      // pending
  for (std::uint64_t j = 0; j < threads; ++j) (void)r.u64();  // consumedK
  for (std::uint64_t j = 0; j < threads; ++j) {
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      (void)r.u64();
      std::vector<std::uint8_t> skip(r.len(1));
      (void)r.raw(skip.data(), skip.size());
    }
  }
  out.statesBegin = at();
  const std::uint64_t states = r.u64();
  for (std::uint64_t i = 0; i < states && r.ok(); ++i) {
    std::vector<Value> values(r.len(8));
    for (Value& v : values) v = r.i64();
    out.states.push_back(std::move(values));
  }
  out.statesEnd = at();
  (void)r.u64();  // hit tally word
  const std::uint64_t msets = r.u64();
  for (std::uint64_t i = 0; i < msets && r.ok(); ++i) {
    const std::uint64_t n = r.len(8);
    for (std::uint64_t x = 0; x < n; ++x) (void)r.u64();
  }
  (void)r.u64();  // monitor-set hit tally
  const std::uint64_t paths = r.u64();
  for (std::uint64_t i = 0; i < paths && r.ok(); ++i) {
    (void)r.u32();  // event thread
    (void)r.u64();  // event index
    (void)r.u64();  // parent id
  }
  const std::uint64_t nodes = r.u64();
  for (std::uint64_t i = 0; i < nodes && r.ok(); ++i) {
    const std::uint64_t n = r.len(4);
    for (std::uint64_t x = 0; x < n; ++x) (void)r.u32();
    out.nodeStateAt.push_back(at());
    out.nodeState.push_back(r.u64());
    (void)r.u64();  // path count
    const std::uint64_t mstates = r.len(16);
    for (std::uint64_t m = 0; m < mstates; ++m) {
      (void)r.u64();
      (void)r.u64();
    }
    (void)r.u64();  // anyPath
  }
  EXPECT_TRUE(r.ok());
  return out;
}

/// `blob` with its state section replaced by `states` (sorted, a superset
/// of the blob's own) and every node's index remapped into it.
std::vector<std::uint8_t> withStates(
    const std::vector<std::uint8_t>& blob, const BlobLayout& layout,
    const std::vector<std::vector<Value>>& states) {
  ckpt::Writer w;
  w.bytes(blob.data(), layout.statesBegin);
  w.u64(states.size());
  for (const auto& values : states) {
    w.u64(values.size());
    for (const Value v : values) w.i64(v);
  }
  std::vector<std::uint8_t> out = w.take();
  const std::size_t newEnd = out.size();
  out.insert(out.end(),
             blob.begin() + static_cast<std::ptrdiff_t>(layout.statesEnd),
             blob.end());
  for (std::size_t i = 0; i < layout.nodeState.size(); ++i) {
    const auto& mine = layout.states.at(layout.nodeState[i]);
    const auto pos = std::lower_bound(states.begin(), states.end(), mine);
    EXPECT_TRUE(pos != states.end() && *pos == mine);
    const auto index = static_cast<std::uint64_t>(pos - states.begin());
    const std::size_t at = layout.nodeStateAt[i] - layout.statesEnd + newEnd;
    for (unsigned b = 0; b < 8; ++b) {
      out[at + b] = static_cast<std::uint8_t>(index >> (8 * b));
    }
  }
  return out;
}

TEST(BoundedMemory, AccountedPeakDoesNotGrowWithTheStream) {
  // The wide-lattice shape at about 1k and 3k messages: the frontier is
  // equally wide in both, so the accounted peak must be too.
  const auto peakOf = [](std::size_t rounds) {
    const MessageStream s = ownVariableStream(rounds, 5);
    Fed fed(s);
    for (const auto& m : s.msgs) fed.online.onMessage(m);
    fed.online.endOfTrace();
    EXPECT_TRUE(fed.online.finished());
    EXPECT_FALSE(fed.online.stats().bounded());
    EXPECT_GT(fed.online.stats().peakLevelWidth, 50u);  // really wide
    return fed.online.stats().peakAccountedBytes;
  };
  const std::uint64_t shortPeak = peakOf(84);
  const std::uint64_t longPeak = peakOf(250);
  EXPECT_LE(longPeak, shortPeak + shortPeak / 4)
      << "short " << shortPeak << " long " << longPeak;
}

TEST(BoundedMemory, CheckpointHoldsOnlyFrontierStates) {
  const MessageStream s = ownVariableStream(60, 7);
  Fed fed(s);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < s.msgs.size(); ++i) {
    fed.online.onMessage(s.msgs[i]);
    if (i % 5 != 0) continue;
    const BlobLayout layout = layoutOf(blobOf(fed.online));
    ASSERT_FALSE(layout.states.empty());
    EXPECT_LE(layout.states.size(), layout.nodeState.size()) << "message " << i;
    EXPECT_TRUE(std::is_sorted(layout.states.begin(), layout.states.end()));
    ++checked;
  }
  EXPECT_GT(checked, 100u);

  // Witness paths grow with the run by design; without them the blob is
  // bounded by the window and the frontier.
  LatticeOptions noPaths;
  noPaths.recordPaths = false;
  const auto blobSize = [&](std::size_t rounds) {
    const MessageStream stream = ownVariableStream(rounds, 7);
    Fed f(stream, noPaths);
    for (const auto& m : stream.msgs) f.online.onMessage(m);
    return blobOf(f.online).size();
  };
  const std::size_t shortBlob = blobSize(84);
  EXPECT_LE(blobSize(250), shortBlob + shortBlob / 4);
}

TEST(BoundedMemory, BlobCarryingEveryVisitedStateRestores) {
  // Analyzers that interned states wrote every state the run had visited
  // into the state section, with frontier nodes indexing into it.  Build
  // such a blob from the states the frontiers held along the way.
  const MessageStream s = ownVariableStream(40, 3);
  Fed ref(s);
  for (const auto& m : s.msgs) ref.online.onMessage(m);
  ref.online.endOfTrace();
  ASSERT_TRUE(ref.online.finished());

  const std::size_t half = s.msgs.size() / 2;
  Fed live(s);
  std::set<std::vector<Value>> visited;
  for (std::size_t i = 0; i < half; ++i) {
    live.online.onMessage(s.msgs[i]);
    for (auto& st : layoutOf(blobOf(live.online)).states) {
      visited.insert(std::move(st));
    }
  }
  const std::vector<std::uint8_t> blob = blobOf(live.online);
  const BlobLayout layout = layoutOf(blob);
  const std::vector<std::vector<Value>> all(visited.begin(), visited.end());
  ASSERT_GT(all.size(), layout.states.size());
  const std::vector<std::uint8_t> legacy = withStates(blob, layout, all);

  Fed restored(s);
  ckpt::Reader r(legacy);
  ASSERT_TRUE(restored.online.restore(r));
  EXPECT_EQ(blobOf(restored.online), blob);
  for (std::size_t i = half; i < s.msgs.size(); ++i) {
    restored.online.onMessage(s.msgs[i]);
  }
  restored.online.endOfTrace();
  ASSERT_TRUE(restored.online.finished());
  EXPECT_EQ(restored.online.violations().size(),
            ref.online.violations().size());
  EXPECT_EQ(blobOf(restored.online), blobOf(ref.online));
}

}  // namespace
}  // namespace mpx::observer
