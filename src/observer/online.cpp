#include "observer/online.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "observer/analysis.hpp"
#include "observer/budget.hpp"
#include "observer/checkpoint_codec.hpp"
#include "observer/level_expand.hpp"
#include "observer/observer_metrics.hpp"
#include "trace/codec.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/timer.hpp"
#include "telemetry/trace_span.hpp"

namespace mpx::observer {

namespace {

/// Per-thread minimum and maximum of k_j over the frontier cuts (all zero
/// for an empty frontier).
std::pair<std::vector<LocalSeq>, std::vector<LocalSeq>> frontierBounds(
    const detail::Frontier& frontier, std::size_t threads) {
  std::vector<LocalSeq> minK(
      threads, frontier.empty() ? 0 : std::numeric_limits<LocalSeq>::max());
  std::vector<LocalSeq> maxK(threads, 0);
  for (const auto& [cut, node] : frontier) {
    for (ThreadId j = 0; j < threads; ++j) {
      minK[j] = std::min<LocalSeq>(minK[j], cut.k[j]);
      maxK[j] = std::max<LocalSeq>(maxK[j], cut.k[j]);
    }
  }
  return {std::move(minK), std::move(maxK)};
}

/// Erases the messages with index below `limit` from one thread's buffer,
/// none of which lies below `from`.  Costs min(limit - from, buffer size)
/// steps, so a restored frontier with a far-off minimum cannot make it
/// loop long.
void releaseBelow(std::unordered_map<LocalSeq, trace::Message>& buffer,
                  LocalSeq from, LocalSeq limit) {
  if (limit >= from && limit - from <= buffer.size()) {
    for (LocalSeq k = from; k < limit; ++k) buffer.erase(k);
  } else {
    std::erase_if(buffer,
                  [limit](const auto& kv) { return kv.first < limit; });
  }
}

}  // namespace

OnlineAnalyzer::OnlineAnalyzer(StateSpace space, std::size_t threads,
                               LatticeMonitor* monitor, LatticeOptions opts)
    : OnlineAnalyzer(std::move(space), threads, monitor, nullptr, opts) {}

OnlineAnalyzer::OnlineAnalyzer(StateSpace space, std::size_t threads,
                               AnalysisBus& bus, LatticeOptions opts)
    : OnlineAnalyzer(std::move(space), threads, bus.monitor(), &bus, opts) {}

OnlineAnalyzer::OnlineAnalyzer(StateSpace space, std::size_t threads,
                               LatticeMonitor* monitor, AnalysisBus* bus,
                               LatticeOptions opts)
    : space_(std::move(space)), monitor_(monitor), bus_(bus), opts_(opts) {
  buffered_.resize(threads);
  prefix_.assign(threads, 0);
  consumedK_.assign(threads, 0);
  minK_.assign(threads, 0);
  // Level 0.
  detail::FrontierNode init;
  init.state = GlobalState(space_.initialValues());
  init.pathCount = 1;
  if (monitor_ != nullptr) {
    const MonitorState m0 = monitor_->initial(init.state);
    init.mstates.emplace(m0, nullptr);
    if (monitor_->isViolating(m0)) {
      detail::emitViolation(violations_, bus_, opts_, Cut(threads),
                            init.state, m0, nullptr);
    }
  }
  frontier_.emplace(Cut(threads), std::move(init));
  stats_.levels = 1;
  stats_.totalNodes = 1;
  stats_.peakLevelWidth = 1;
  stats_.peakLiveNodes = 1;
  stats_.monitorStatesPeak = monitor_ != nullptr ? 1 : 0;
  liveFrontierBytes_ = detail::frontierBytes(frontier_, opts_.recordPaths);
  stats_.accountedBytes = msets_.bytes() + liveFrontierBytes_;
  stats_.peakAccountedBytes = stats_.accountedBytes;
  retainLevel(0);
  if (bus_ != nullptr) {
    bus_->dispatchLevel(frontier_, 0, msets_);
  }
}

std::uint64_t OnlineAnalyzer::observedPathKey(const Cut& cut) const {
  // Max globalSeq over the cut's per-thread last events.  A frontier cut
  // only includes events that already arrived, and its k_j is at least the
  // release floor minK_[j], so find() never misses here.
  std::uint64_t key = 0;
  for (ThreadId j = 0; j < cut.k.size(); ++j) {
    if (cut.k[j] == 0) continue;
    const trace::Message* m = find(j, cut.k[j]);
    if (m != nullptr) {
      key = std::max<std::uint64_t>(key, m->event.globalSeq);
    }
  }
  return key;
}

std::size_t OnlineAnalyzer::bufferedMessages() const noexcept {
  std::size_t n = 0;
  for (const auto& perThread : buffered_) n += perThread.size();
  return n;
}

const trace::Message* OnlineAnalyzer::find(ThreadId j, LocalSeq k) const {
  if (j >= buffered_.size()) return nullptr;
  const auto it = buffered_[j].find(k);
  return it == buffered_[j].end() ? nullptr : &it->second;
}

void OnlineAnalyzer::onMessage(const trace::Message& m) {
  if (ended_) {
    throw std::logic_error("OnlineAnalyzer: message after endOfTrace");
  }
  const ThreadId j = m.event.thread;
  const LocalSeq k = m.clock[j];
  if (k == 0) {
    throw std::runtime_error(
        "OnlineAnalyzer: message clock has zero own-component");
  }
  if (j >= buffered_.size()) {
    throw std::runtime_error(
        "OnlineAnalyzer: message from thread " + std::to_string(j) +
        " beyond the declared thread count " +
        std::to_string(buffered_.size()));
  }
  // Indices up to prefix_[j] have all arrived (and may already be freed).
  if (k <= prefix_[j] || !buffered_[j].emplace(k, m).second) {
    throw std::runtime_error("OnlineAnalyzer: duplicate message for thread " +
                             std::to_string(j) + " index " +
                             std::to_string(k));
  }
  while (buffered_[j].contains(prefix_[j] + 1)) ++prefix_[j];
  ++pending_;
  if constexpr (telemetry::kEnabled) {
    ObserverMetrics::get().backlogHwm.recordMax(
        static_cast<std::int64_t>(pending_));
  }
  tryAdvance();
}

void OnlineAnalyzer::endOfTrace() {
  if (ended_) return;
  ended_ = true;
  tryAdvance();
  if (!finished_) {
    throw std::runtime_error(
        "OnlineAnalyzer: trace ended with gaps — " +
        std::to_string(pending_) + " messages unusable");
  }
}

bool OnlineAnalyzer::enabled(const Cut& cut, ThreadId j,
                             const trace::Message& m) const {
  for (ThreadId o = 0; o < cut.k.size(); ++o) {
    if (o == j) continue;
    if (m.clock[o] > cut.k[o]) return false;
  }
  return true;
}

bool OnlineAnalyzer::canExpand() const {
  // The next level is computable when, for every frontier cut and thread,
  // the candidate next event (j, k_j + 1) is either buffered or known not
  // to exist (trace ended and the thread's stream stops earlier).  Some
  // frontier cut consumed messages 1..consumedK_[j] of thread j, so every
  // cut with k_j < consumedK_[j] already has its j-successor buffered;
  // only the cuts at the per-thread maximum wait, on message
  // consumedK_[j] + 1, which has arrived iff prefix_[j] exceeds it.
  if (frontier_.empty() || prefix_.empty()) return false;
  bool allNext = true;
  bool anyNext = false;
  for (ThreadId j = 0; j < prefix_.size(); ++j) {
    if (prefix_[j] > consumedK_[j]) {
      anyNext = true;
    } else {
      allNext = false;  // might still arrive
    }
  }
  if (!ended_) return allNext;
  // After the end, expand while any cut has a successor: a thread with a
  // message past its maximum, or a frontier of several cuts (one of them
  // lies below the per-thread maximum on some thread).
  return anyNext || frontier_.size() > 1;
}

void OnlineAnalyzer::expandOneLevel() {
  telemetry::TraceSpan span("lattice.level", "observer");
  telemetry::ScopedTimer levelTimer(ObserverMetrics::get().levelNs);
  const auto nextMsg =
      [this](const Cut& cut, ThreadId j) -> const trace::Message* {
    const trace::Message* m = find(j, cut.k[j] + 1);
    if (m == nullptr || !enabled(cut, j, *m)) return nullptr;
    return m;
  };
  const std::size_t violationsBefore = violations_.size();
  const DegradationMode degradationBefore = stats_.degradation;
  std::size_t edges = 0;
  detail::Frontier next = detail::expandLevel(
      frontier_, buffered_.size(), space_, monitor_, opts_, stats_,
      violations_, bus_, edges, nextMsg);
  const std::size_t built = next.size();
  // Degradation ladder: shed nodes (deterministically) when the level
  // pushes the accounted working set over the budget or the frontier cap.
  // stats_.levels is the pre-increment count, so `next` sits at level
  // stats_.levels: the sampler salts with the level index, which keeps the
  // survivor sets independent of how many levels one arrival completes.
  detail::enforceBudget(next, opts_, stats_, stats_.levels,
                        msets_.bytes(), liveFrontierBytes_,
                        [this](const Cut& cut) {
                          return observedPathKey(cut);
                        });

  detail::recordLevelEdges(stats_, edges, built);
  stats_.totalNodes += next.size();
  stats_.peakLevelWidth = std::max(stats_.peakLevelWidth, next.size());
  stats_.peakLiveNodes =
      std::max(stats_.peakLiveNodes, frontier_.size() + next.size());
  ++stats_.levels;
  stats_.gcNodes += frontier_.size();
  if constexpr (telemetry::kEnabled) {
    ObserverMetrics& tm = ObserverMetrics::get();
    tm.levels.add(1);
    tm.nodesCreated.add(next.size());
    tm.nodesGc.add(frontier_.size());
    tm.frontierWidth.record(next.size());
    tm.monitorStatesPeak.recordMax(
        static_cast<std::int64_t>(stats_.monitorStatesPeak));
    span.arg("level", static_cast<std::int64_t>(stats_.levels - 1));
    span.arg("width", static_cast<std::int64_t>(next.size()));
    span.arg("edges", static_cast<std::int64_t>(edges));
  }
  liveFrontierBytes_ = detail::frontierBytes(next, opts_.recordPaths);
  frontier_ = std::move(next);
  if (frontier_.size() <= opts_.maxNodesPerLevel) {
    // A level that trips the width cap ends the run truncated (tryAdvance):
    // it is counted in the stats but neither retained nor dispatched.
    retainLevel(stats_.levels - 1);
    if (bus_ != nullptr) {
      bus_->dispatchLevel(frontier_, stats_.levels - 1, msets_);
    }
  }

  settleFrontier();

  // Flight-recorder breadcrumbs: one record per level, plus rung changes
  // and fresh violations (the post-mortem story of the run).
  telemetry::FlightRecorder::global().record(
      telemetry::FlightEvent::kLevel, stats_.levels - 1, frontier_.size());
  if (stats_.degradation != degradationBefore) {
    telemetry::FlightRecorder::global().record(
        telemetry::FlightEvent::kDegradation,
        static_cast<std::uint64_t>(stats_.degradation),
        static_cast<std::uint64_t>(stats_.boundReason));
  }
  for (std::size_t i = violationsBefore; i < violations_.size(); ++i) {
    telemetry::FlightRecorder::global().record(
        telemetry::FlightEvent::kViolation, stats_.levels - 1);
  }
}

void OnlineAnalyzer::retainLevel(std::uint64_t level) {
  if (opts_.retention != Retention::kFull) return;
  std::vector<LevelNode> nodes;
  nodes.reserve(frontier_.size());
  for (const auto& [cut, node] : frontier_) {
    LevelNode ln;
    ln.cut = cut;
    ln.state = node.state;
    ln.pathCount = node.pathCount;
    for (const auto& [ms, witness] : node.mstates) {
      ln.monitorStates.push_back(ms);
    }
    nodes.push_back(std::move(ln));
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const LevelNode& a, const LevelNode& b) {
              return a.cut.k < b.cut.k;
            });
  if (retained_.size() <= level) retained_.resize(level + 1);
  retained_[level] = std::move(nodes);
}

const std::vector<std::vector<LevelNode>>& OnlineAnalyzer::levels() const {
  if (opts_.retention != Retention::kFull) {
    throw std::logic_error("levels() requires Retention::kFull");
  }
  return retained_;
}

void OnlineAnalyzer::settleFrontier() {
  const std::size_t threads = buffered_.size();
  auto [minK, maxK] = frontierBounds(frontier_, threads);
  // A cut with k_j = m was reached by consuming messages 1..m of thread j,
  // so pending_ = sum over j of (arrived - maxK): each arrival added one,
  // and the change of maxK comes off here — also when budget shedding
  // moved it backwards.  The maxima double as the consumption watermark
  // the daemon measures emit-to-analyze lag against.
  for (ThreadId j = 0; j < threads; ++j) {
    pending_ += consumedK_[j];
    pending_ -= maxK[j];
  }
  consumedK_ = std::move(maxK);
  // Release: no cut reaches below minK[j] again, so thread j's messages
  // under it are garbage (witness paths hold EventRefs, not messages).
  if (frontier_.empty()) return;
  for (ThreadId j = 0; j < threads; ++j) {
    releaseBelow(buffered_[j], minK_[j], minK[j]);
    minK_[j] = minK[j];
  }
}

namespace {

/// Layout version of the OnlineAnalyzer checkpoint blob.
constexpr std::uint8_t kAnalyzerCkptVersion = 1;

void writeStats(ckpt::Writer& w, const LatticeStats& s) {
  w.u64(s.levels);
  w.u64(s.totalNodes);
  w.u64(s.totalEdges);
  w.u64(s.peakLevelWidth);
  w.u64(s.peakLiveNodes);
  w.u64(s.gcNodes);
  w.u64(s.pathCount);
  w.boolean(s.pathCountSaturated);
  w.boolean(s.truncated);
  w.u64(s.monitorStatesPeak);
  w.u64(s.prunedMonitorStates);
  w.u64(0);  // once the beam approximation's pruned-node count
  w.boolean(s.approximated);
  w.u64(s.internHits);
  w.u64(s.internMisses);
  w.u64(0);  // once the state arena's size; no longer kept
  w.u64(s.msetInternHits);
  w.u64(s.msetInternMisses);
  w.u64(s.accountedBytes);
  w.u64(s.peakAccountedBytes);
  w.u64(s.droppedNodes);
  w.u64(s.degradedAtLevel);
  w.u8(static_cast<std::uint8_t>(s.degradation));
  w.u8(static_cast<std::uint8_t>(s.boundReason));
}

bool readStats(ckpt::Reader& r, LatticeStats& s) {
  s.levels = static_cast<std::size_t>(r.u64());
  s.totalNodes = static_cast<std::size_t>(r.u64());
  s.totalEdges = static_cast<std::size_t>(r.u64());
  s.peakLevelWidth = static_cast<std::size_t>(r.u64());
  s.peakLiveNodes = static_cast<std::size_t>(r.u64());
  s.gcNodes = static_cast<std::size_t>(r.u64());
  s.pathCount = r.u64();
  s.pathCountSaturated = r.boolean();
  s.truncated = r.boolean();
  s.monitorStatesPeak = static_cast<std::size_t>(r.u64());
  s.prunedMonitorStates = static_cast<std::size_t>(r.u64());
  (void)r.u64();  // once the beam approximation's pruned-node count
  s.approximated = r.boolean();
  s.internHits = r.u64();
  s.internMisses = r.u64();
  (void)r.u64();  // once the state arena's size
  s.msetInternHits = r.u64();
  s.msetInternMisses = r.u64();
  s.accountedBytes = r.u64();
  s.peakAccountedBytes = r.u64();
  s.droppedNodes = r.u64();
  s.degradedAtLevel = r.u64();
  const std::uint8_t deg = r.u8();
  const std::uint8_t reason = r.u8();
  if (deg > static_cast<std::uint8_t>(DegradationMode::kObservedOnly) ||
      reason > static_cast<std::uint8_t>(BoundReason::kMaxFrontier)) {
    return false;
  }
  s.degradation = static_cast<DegradationMode>(deg);
  s.boundReason = static_cast<BoundReason>(reason);
  return r.ok();
}

}  // namespace

void OnlineAnalyzer::checkpoint(ckpt::Writer& w) const {
  w.u8(kAnalyzerCkptVersion);
  w.u64(buffered_.size());
  w.boolean(ended_);
  w.boolean(finished_);
  w.u64(pending_);
  for (const LocalSeq k : consumedK_) w.u64(k);

  // The buffered live window, per thread in index order, each message
  // self-delimited by an explicit length so the reader can bound its copy.
  for (ThreadId j = 0; j < buffered_.size(); ++j) {
    std::vector<LocalSeq> keys;
    keys.reserve(buffered_[j].size());
    for (const auto& [k, m] : buffered_[j]) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (const LocalSeq k : keys) {
      w.u64(k);
      std::vector<std::uint8_t> enc;
      trace::BinaryCodec::encode(buffered_[j].at(k), enc);
      w.u64(enc.size());
      w.bytes(enc.data(), enc.size());
    }
  }

  std::vector<const detail::Frontier::value_type*> sorted;
  sorted.reserve(frontier_.size());
  for (const auto& kv : frontier_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first.k < b->first.k; });

  // The distinct states of the live frontier in sorted order; the frontier
  // below references them by index.  The word after them once held the
  // state arena's hit tally and is kept for the layout.
  std::vector<std::vector<Value>> states;
  states.reserve(sorted.size());
  for (const auto* kv : sorted) states.push_back(kv->second.state.values);
  std::sort(states.begin(), states.end());
  states.erase(std::unique(states.begin(), states.end()), states.end());
  const auto stateIndexOf = [&states](const GlobalState& st) {
    return static_cast<std::uint64_t>(
        std::lower_bound(states.begin(), states.end(), st.values) -
        states.begin());
  };
  w.u64(states.size());
  for (const std::vector<Value>& values : states) {
    w.u64(values.size());
    for (const Value v : values) w.i64(v);
  }
  w.u64(0);

  const auto msets = msets_.snapshotSorted();
  w.u64(msets.size());
  for (const auto* mv : msets) {
    w.u64(mv->size());
    for (const std::uint64_t x : *mv) w.u64(x);
  }
  w.u64(msets_.stats().hits);

  // Witness-path DAG reachable from the frontier, parents before children
  // (persistent shared-suffix chains; each node written once).  Id 0 is
  // the null path.
  std::unordered_map<const PathNode*, std::uint64_t> pathIds;
  std::vector<const PathNode*> pathOrder;
  const auto visitPath = [&](const PathPtr& p) {
    std::vector<const PathNode*> chain;
    for (const PathNode* n = p.get();
         n != nullptr && pathIds.find(n) == pathIds.end();
         n = n->parent.get()) {
      chain.push_back(n);
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      pathIds.emplace(*it, pathOrder.size() + 1);
      pathOrder.push_back(*it);
    }
  };
  for (const auto* kv : sorted) {
    visitPath(kv->second.anyPath);
    for (const auto& [ms, p] : kv->second.mstates) visitPath(p);
  }
  const auto pathIdOf = [&](const PathPtr& p) -> std::uint64_t {
    return p == nullptr ? 0 : pathIds.at(p.get());
  };
  w.u64(pathOrder.size());
  for (const PathNode* n : pathOrder) {
    ckpt::writeEventRef(w, n->event);
    w.u64(n->parent == nullptr ? 0 : pathIds.at(n->parent.get()));
  }

  // The live frontier, sorted by cut.
  w.u64(sorted.size());
  for (const auto* kv : sorted) {
    w.u64(kv->first.k.size());
    for (const std::uint32_t c : kv->first.k) w.u32(c);
    w.u64(stateIndexOf(kv->second.state));
    w.u64(kv->second.pathCount);
    w.u64(kv->second.mstates.size());
    for (const auto& [ms, p] : kv->second.mstates) {
      w.u64(ms);
      w.u64(pathIdOf(p));
    }
    w.u64(pathIdOf(kv->second.anyPath));
  }
  w.u64(liveFrontierBytes_);

  writeStats(w, stats_);

  w.u64(violations_.size());
  for (const Violation& v : violations_) ckpt::writeViolation(w, v);
}

bool OnlineAnalyzer::restore(ckpt::Reader& r) {
  if (r.u8() != kAnalyzerCkptVersion) return false;
  if (r.u64() != buffered_.size()) return false;
  ended_ = r.boolean();
  finished_ = r.boolean();
  pending_ = static_cast<std::size_t>(r.u64());
  consumedK_.assign(buffered_.size(), 0);
  for (ThreadId j = 0; j < buffered_.size(); ++j) consumedK_[j] = r.u64();

  for (ThreadId j = 0; j < buffered_.size(); ++j) {
    buffered_[j].clear();
    const std::uint64_t count = r.len(16);
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      const LocalSeq k = r.u64();
      const std::uint64_t encLen = r.len(1);
      std::vector<std::uint8_t> enc(static_cast<std::size_t>(encLen));
      if (!r.raw(enc.data(), enc.size())) return false;
      const auto dec = trace::BinaryCodec::tryDecode(enc.data(), enc.size());
      if (dec.status != trace::DecodeStatus::kOk ||
          dec.consumed != enc.size()) {
        return false;
      }
      if (k == 0 || !buffered_[j].emplace(k, dec.message).second) return false;
    }
  }

  // Older blobs carry every state the run visited, not only the
  // frontier's; nodes index into the section either way.
  std::vector<GlobalState> statesByIndex;
  const std::uint64_t stateCount = r.len(8);
  statesByIndex.reserve(static_cast<std::size_t>(stateCount));
  for (std::uint64_t i = 0; i < stateCount && r.ok(); ++i) {
    const std::uint64_t n = r.len(8);
    if (n != space_.size()) return false;
    std::vector<Value> values(static_cast<std::size_t>(n));
    for (auto& v : values) v = r.i64();
    statesByIndex.emplace_back(std::move(values));
  }
  (void)r.u64();  // the state arena's hit tally in older blobs

  msets_.clear();
  retained_.clear();
  const std::uint64_t msetCount = r.len(8);
  for (std::uint64_t i = 0; i < msetCount && r.ok(); ++i) {
    const std::uint64_t n = r.len(8);
    std::vector<std::uint64_t> set(static_cast<std::size_t>(n));
    for (auto& x : set) x = r.u64();
    msets_.intern(std::move(set));
  }
  msets_.addHits(r.u64());

  const std::uint64_t pathCount = r.len(8);
  std::vector<PathPtr> paths(static_cast<std::size_t>(pathCount) + 1);
  for (std::uint64_t i = 1; i <= pathCount && r.ok(); ++i) {
    const EventRef e = ckpt::readEventRef(r);
    const std::uint64_t parent = r.u64();
    if (parent >= i) return false;  // parents precede children
    paths[static_cast<std::size_t>(i)] = std::make_shared<const PathNode>(
        e, paths[static_cast<std::size_t>(parent)]);
  }
  const auto pathAt = [&](std::uint64_t id) -> PathPtr {
    if (id > pathCount) {
      r.fail();
      return nullptr;
    }
    return paths[static_cast<std::size_t>(id)];
  };

  frontier_.clear();
  const std::uint64_t frontierCount = r.len(8);
  for (std::uint64_t i = 0; i < frontierCount && r.ok(); ++i) {
    Cut cut;
    const std::uint64_t n = r.len(4);
    if (n != buffered_.size()) return false;
    cut.k.resize(static_cast<std::size_t>(n));
    for (auto& c : cut.k) c = r.u32();
    detail::FrontierNode node;
    const std::uint64_t stateIdx = r.u64();
    if (stateIdx >= statesByIndex.size()) return false;
    node.state = statesByIndex[static_cast<std::size_t>(stateIdx)];
    node.pathCount = r.u64();
    const std::uint64_t mcount = r.len(16);
    for (std::uint64_t m = 0; m < mcount && r.ok(); ++m) {
      const MonitorState ms = r.u64();
      node.mstates.emplace(ms, pathAt(r.u64()));
    }
    node.anyPath = pathAt(r.u64());
    if (!frontier_.emplace(std::move(cut), std::move(node)).second) {
      return false;
    }
  }
  // The budget ladder charges this tally on the next level, so it comes
  // from the restored frontier, not from the untrusted blob.
  liveFrontierBytes_ = detail::frontierBytes(frontier_, opts_.recordPaths);
  if (r.u64() != liveFrontierBytes_) return false;

  if (!readStats(r, stats_)) return false;

  violations_.clear();
  const std::uint64_t vcount = r.len(8);
  for (std::uint64_t i = 0; i < vcount && r.ok(); ++i) {
    violations_.push_back(ckpt::readViolation(r));
  }
  if (!r.ok()) return false;

  // Rebuild the arrival prefixes: messages 1..consumedK_[j] have all
  // arrived, and the ones above it are buffered.  A blob from before
  // messages were released still carries consumed ones below the frontier
  // minimum: free them now.
  auto [minK, maxK] = frontierBounds(frontier_, buffered_.size());
  if (maxK != consumedK_) return false;
  minK_ = std::move(minK);
  for (ThreadId j = 0; j < buffered_.size(); ++j) {
    releaseBelow(buffered_[j], 0, minK_[j]);
    prefix_[j] = consumedK_[j];
    while (buffered_[j].contains(prefix_[j] + 1)) ++prefix_[j];
  }
  return true;
}

void OnlineAnalyzer::finalize() {
  finished_ = true;
  detail::recordInternStats(stats_, msets_);
  if (bus_ != nullptr) bus_->finish(stats_);
}

void OnlineAnalyzer::tryAdvance() {
  while (!finished_ && canExpand()) {
    expandOneLevel();
    if (frontier_.size() > opts_.maxNodesPerLevel) {
      stats_.truncated = true;
      finalize();
      return;
    }
  }
  if (ended_ && !finished_) {
    // Finished when the frontier is the single complete cut: no thread has
    // a buffered successor.
    bool complete = frontier_.size() == 1;
    if (complete) {
      const Cut& cut = frontier_.begin()->first;
      for (ThreadId j = 0; j < cut.k.size(); ++j) {
        if (find(j, cut.k[j] + 1) != nullptr) complete = false;
      }
      // Also require no stray unconsumed messages (gap detection).
      if (complete && pending_ == 0) {
        stats_.pathCount = frontier_.begin()->second.pathCount;
        finalize();
      }
    }
  }
}

}  // namespace mpx::observer
