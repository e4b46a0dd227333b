// Independent level-set oracle for the online analyzer, plus a seeded
// generator of mid-sized message streams to run it on.
//
// The oracle re-derives the computation lattice from the paper's
// definitions with plain standard containers and NO code of the engine
// under test (src/observer, the synthesized monitors of src/logic):
//
//   * level L+1 is the set of consistent cuts one event above a cut of
//     level L, kept as an ordered map keyed by index vector — a cut is
//     admitted by BruteForceOracle's MVC consistency check (every thread's
//     last included event has clock[o] <= k_o for all other threads o);
//   * each cut carries its valuation (the latest included write of every
//     tracked variable), a saturating count of the runs reaching it, and
//     the set of PtEval truth vectors its runs can reach, so the verdict
//     needs no run enumeration and scales to traces far beyond the
//     brute-force oracle's twelve events.
//
// The only code it shares with the engine is the parsed formula whose
// atoms PtEval evaluates (trace_gen.hpp), and the message type itself.
// replayWitness() checks a reported counterexample run event by event
// against the same definitions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/instrumentor.hpp"
#include "trace/channel.hpp"
#include "trace/var_table.hpp"
#include "trace_gen.hpp"

namespace mpx::testing {

struct LevelOracleResult {
  /// Cuts at which some run violates the formula.
  std::set<std::vector<LocalSeq>> violatingCuts;
  /// Consistent cuts per level; level L holds the cuts with sum k_j == L.
  std::vector<std::uint64_t> levelWidths;
  std::uint64_t totalNodes = 0;
  /// Runs from the empty cut to the complete cut, saturating at 2^64 - 1.
  std::uint64_t pathCount = 0;
  bool pathCountSaturated = false;
  /// Empty unless two paths into one cut disagreed on its valuation (the
  /// definitions promise they never do).
  std::string error;

  [[nodiscard]] std::uint64_t peakLevelWidth() const {
    std::uint64_t best = 0;
    for (const std::uint64_t w : levelWidths) best = std::max(best, w);
    return best;
  }
};

/// "S" + the per-thread indices, the notation of Cut::toString.
inline std::string oracleCutName(const std::vector<LocalSeq>& k) {
  std::string s = "S";
  for (const LocalSeq v : k) s += std::to_string(v);
  return s;
}

class LevelSetOracle {
 public:
  /// `msgs` in any order; `tracked[i]` is the variable of state slot i and
  /// `init[i]` its initial value; `formula` is bound to those slots.
  LevelSetOracle(const std::vector<trace::Message>& msgs, std::size_t threads,
                 std::vector<VarId> tracked, std::vector<Value> init,
                 const logic::Formula& formula)
      : n_(threads),
        tracked_(std::move(tracked)),
        init_(std::move(init)),
        eval_(formula) {
    byThread_.assign(n_, {});
    for (const trace::Message& m : msgs) byThread_[m.event.thread].push_back(m);
    for (auto& stream : byThread_) {
      std::sort(stream.begin(), stream.end(),
                [](const trace::Message& a, const trace::Message& b) {
                  return a.clock[a.event.thread] < b.clock[b.event.thread];
                });
    }
    run();
  }

  [[nodiscard]] const LevelOracleResult& result() const noexcept {
    return result_;
  }

  /// The cuts at which the observed execution itself (the messages in
  /// globalSeq order) violates the formula.  A budget-bounded analysis
  /// keeps the observed execution's cut on every level, so it must still
  /// report each of these.
  [[nodiscard]] std::set<std::vector<LocalSeq>> observedViolatingCuts() const {
    std::vector<const trace::Message*> order;
    for (const auto& stream : byThread_) {
      for (const trace::Message& m : stream) order.push_back(&m);
    }
    std::sort(order.begin(), order.end(),
              [](const trace::Message* a, const trace::Message* b) {
                return a->event.globalSeq < b->event.globalSeq;
              });
    std::set<std::vector<LocalSeq>> out;
    std::vector<LocalSeq> k(n_, 0);
    std::vector<Value> s = init_;
    std::vector<char> truth = eval_.initial(observer::GlobalState(s));
    if (!PtEval::rootValue(truth)) out.insert(k);
    for (const trace::Message* m : order) {
      ++k[m->event.thread];
      apply(*m, s);
      truth = eval_.step(truth, false, observer::GlobalState(s));
      if (!PtEval::rootValue(truth)) out.insert(k);
    }
    return out;
  }

  /// Checks one reported counterexample: `path` must be a run from the
  /// empty cut (each step the next event of its thread, each cut
  /// consistent) ending at `cut` with valuation `state`, and the formula
  /// must be false after it.  Returns "" when it is, else the reason.
  [[nodiscard]] std::string replayWitness(
      const std::vector<std::pair<ThreadId, LocalSeq>>& path,
      const std::vector<LocalSeq>& cut,
      const std::vector<Value>& state) const {
    std::vector<LocalSeq> k(n_, 0);
    std::vector<Value> s = init_;
    std::vector<char> truth = eval_.initial(observer::GlobalState(s));
    for (const auto& [t, index] : path) {
      if (t >= n_ || index != k[t] + 1 || index > byThread_[t].size()) {
        return "step (" + std::to_string(t) + "," + std::to_string(index) +
               ") is not the next event of its thread";
      }
      ++k[t];
      if (!consistent(k)) return "run passes inconsistent cut " + oracleCutName(k);
      apply(byThread_[t][index - 1], s);
      truth = eval_.step(truth, false, observer::GlobalState(s));
    }
    if (k != cut) return "run ends at " + oracleCutName(k) + ", not at the cut";
    if (s != state) return "run's valuation differs from the reported state";
    if (PtEval::rootValue(truth)) return "formula holds after the run";
    return "";
  }

 private:
  struct Node {
    std::vector<Value> state;
    std::set<std::vector<char>> truths;
    std::uint64_t paths = 0;
  };

  [[nodiscard]] bool consistent(const std::vector<LocalSeq>& k) const {
    for (ThreadId j = 0; j < n_; ++j) {
      if (k[j] == 0) continue;
      if (k[j] > byThread_[j].size()) return false;
      const trace::Message& m = byThread_[j][k[j] - 1];
      for (ThreadId o = 0; o < n_; ++o) {
        if (o != j && m.clock[o] > k[o]) return false;
      }
    }
    return true;
  }

  void apply(const trace::Message& m, std::vector<Value>& s) const {
    for (std::size_t i = 0; i < tracked_.size(); ++i) {
      if (tracked_[i] == m.event.var) s[i] = m.event.value;
    }
  }

  void run() {
    std::map<std::vector<LocalSeq>, Node> level;
    Node root;
    root.state = init_;
    root.truths.insert(eval_.initial(observer::GlobalState(init_)));
    root.paths = 1;
    level.emplace(std::vector<LocalSeq>(n_, 0), std::move(root));
    while (true) {
      result_.levelWidths.push_back(level.size());
      result_.totalNodes += level.size();
      for (const auto& [k, node] : level) {
        for (const auto& t : node.truths) {
          if (!PtEval::rootValue(t)) result_.violatingCuts.insert(k);
        }
      }
      std::map<std::vector<LocalSeq>, Node> next;
      for (const auto& [k, node] : level) {
        for (ThreadId j = 0; j < n_; ++j) {
          if (k[j] >= byThread_[j].size()) continue;
          std::vector<LocalSeq> child = k;
          ++child[j];
          if (!consistent(child)) continue;
          std::vector<Value> s = node.state;
          apply(byThread_[j][k[j]], s);
          auto [it, inserted] = next.try_emplace(child);
          Node& c = it->second;
          if (inserted) {
            c.state = s;
          } else if (c.state != s) {
            result_.error = "two paths into " + oracleCutName(child) +
                            " disagree on its valuation";
          }
          const observer::GlobalState gs(s);
          for (const auto& t : node.truths) {
            c.truths.insert(eval_.step(t, false, gs));
          }
          const std::uint64_t sum = c.paths + node.paths;
          if (sum < c.paths) {
            result_.pathCountSaturated = true;
            c.paths = ~std::uint64_t{0};
          } else {
            c.paths = sum;
          }
        }
      }
      if (next.empty()) break;
      level = std::move(next);
    }
    result_.pathCount = level.size() == 1 ? level.begin()->second.paths : 0;
  }

  std::size_t n_;
  std::vector<VarId> tracked_;
  std::vector<Value> init_;
  PtEval eval_;
  std::vector<std::vector<trace::Message>> byThread_;
  LevelOracleResult result_;
};

// --- seeded mid-sized streams ---------------------------------------------

/// A message stream of `threads` threads produced by Algorithm A
/// (core::Instrumentor) from a synthetic execution, with the names a
/// session needs to analyze it.
struct StreamCase {
  std::size_t threads = 0;
  trace::VarTable vars;
  std::vector<std::string> tracked;  ///< g0, g1, then own variable per thread
  std::string spec;
  std::vector<trace::Message> msgs;  ///< observed (generation) order
};

/// Seeded stream of 2..4 threads and 20..150 relevant events (exactly
/// `relevant` of them when that is nonzero).  Each step
/// one thread writes its own variable (concurrent with the other threads),
/// reads a shared variable g0/g1 (joins its last writer), or writes one
/// (ordered after every earlier access).  The own-write share falls as the
/// thread count rises, which keeps the lattice to a few thousand cuts.
inline StreamCase generateStreamCase(std::uint64_t seed,
                                     std::size_t relevant = 0) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0x51ed);
  StreamCase c;
  c.threads = 2 + seed % 3;
  const std::size_t drawn = 20 + rng() % 131;
  if (relevant == 0) relevant = drawn;
  const unsigned ownPercent = c.threads == 2 ? 65 : c.threads == 3 ? 50 : 40;
  std::vector<VarId> shared;
  for (const char* g : {"g0", "g1"}) {
    shared.push_back(c.vars.intern(g, 0));
    c.tracked.emplace_back(g);
  }
  std::vector<VarId> own;
  for (std::size_t t = 0; t < c.threads; ++t) {
    c.tracked.push_back("l" + std::to_string(t));
    own.push_back(c.vars.intern(c.tracked.back(), 0));
  }
  c.spec = specForSeed(seed);

  std::unordered_set<VarId> ids;
  for (const std::string& name : c.tracked) ids.insert(c.vars.id(name));
  trace::CollectingSink sink;
  core::Instrumentor instr(core::RelevancePolicy::writesOf(ids), sink);
  std::vector<LocalSeq> local(c.threads, 0);
  GlobalSeq global = 0;
  std::size_t emitted = 0;
  while (emitted < relevant) {
    trace::Event e;
    e.thread = static_cast<ThreadId>(rng() % c.threads);
    const unsigned roll = static_cast<unsigned>(rng() % 100);
    const VarId g = shared[rng() % shared.size()];
    if (roll < ownPercent) {
      e.kind = trace::EventKind::kWrite;
      e.var = own[e.thread];
      e.value = static_cast<Value>(rng() % 4);
      ++emitted;
    } else if (roll < ownPercent + (100 - ownPercent) / 2) {
      e.kind = trace::EventKind::kRead;
      e.var = g;
    } else {
      e.kind = trace::EventKind::kWrite;
      e.var = g;
      e.value = static_cast<Value>(rng() % 7);
      ++emitted;
    }
    e.localSeq = ++local[e.thread];
    e.globalSeq = ++global;
    instr.onEvent(e);
  }
  c.msgs = sink.take();
  return c;
}

}  // namespace mpx::testing
