#include "observer/online.hpp"

#include <algorithm>
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

/// Erases the messages with index below `limit` from one thread's buffer,
/// none of which lies below `from`.  Costs min(limit - from, buffer size)
/// steps, so a restored frontier with a far-off minimum cannot make it
/// loop long.
void releaseBelow(
    std::unordered_map<LocalSeq, detail::BufferedMessage>& buffer,
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
    : space_(std::move(space)),
      monitor_(monitor),
      bus_(bus),
      opts_(opts),
      frontier_(std::make_unique<detail::Level>()),
      next_(std::make_unique<detail::Level>()) {
  buffered_.resize(threads);
  prefix_.assign(threads, 0);
  consumedK_.assign(threads, 0);
  minK_.assign(threads, 0);
  // Level 0.
  scratch_ = GlobalState(space_.initialValues());
  frontier_->reset(threads, space_.size());
  next_->reset(threads, space_.size());
  const std::vector<std::uint32_t> zero(threads, 0);
  const std::uint32_t root = frontier_->insert(zero.data()).first;
  std::copy(scratch_.values.begin(), scratch_.values.end(),
            frontier_->state(root));
  frontier_->pathCount(root) = 1;
  if (monitor_ != nullptr) {
    const MonitorState m0 = monitor_->initial(scratch_);
    frontier_->addEntry(root, m0, nullptr);
    if (monitor_->isViolating(m0)) {
      detail::emitViolation(violations_, bus_, opts_, zero.data(), threads,
                            scratch_.values.data(), space_.size(), m0,
                            nullptr);
    }
  }
  frontier_->sortRows();
  stats_.levels = 1;
  stats_.totalNodes = 1;
  stats_.peakLevelWidth = 1;
  stats_.peakLiveNodes = 1;
  stats_.monitorStatesPeak = monitor_ != nullptr ? 1 : 0;
  liveFrontierBytes_ = detail::frontierBytes(*frontier_, opts_.recordPaths);
  stats_.accountedBytes = msets_.bytes() + liveFrontierBytes_;
  stats_.peakAccountedBytes = stats_.accountedBytes;
  retainLevel(0);
  if (bus_ != nullptr) {
    bus_->dispatchLevel(*frontier_, 0, msets_);
  }
}

std::uint64_t OnlineAnalyzer::observedPathKey(const std::uint32_t* cut) const {
  // Max globalSeq over the cut's per-thread last events.  A frontier cut
  // only includes events that already arrived, and its k_j is at least the
  // release floor minK_[j], so find() never misses here.
  std::uint64_t key = 0;
  for (ThreadId j = 0; j < buffered_.size(); ++j) {
    if (cut[j] == 0) continue;
    const detail::BufferedMessage* b = find(j, cut[j]);
    if (b != nullptr) {
      key = std::max<std::uint64_t>(key, b->msg.event.globalSeq);
    }
  }
  return key;
}

std::size_t OnlineAnalyzer::bufferedMessages() const noexcept {
  std::size_t n = 0;
  for (const auto& perThread : buffered_) n += perThread.size();
  return n;
}

const detail::BufferedMessage* OnlineAnalyzer::find(ThreadId j,
                                                    LocalSeq k) const {
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
  const auto slot = space_.slotOf(m.event.var);
  if (k <= prefix_[j] ||
      !buffered_[j]
           .emplace(k, detail::BufferedMessage{
                           m, slot ? static_cast<std::uint32_t>(*slot)
                                   : detail::BufferedMessage::kNoSlot})
           .second) {
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

const detail::BufferedMessage* OnlineAnalyzer::nextAt(const std::uint32_t* cut,
                                                      ThreadId j) const {
  const detail::BufferedMessage* b = find(j, LocalSeq{cut[j]} + 1);
  if (b == nullptr) return nullptr;
  // Enabled iff every causal predecessor on another thread is in the cut.
  const vc::VectorClock& clock = b->msg.clock;
  for (ThreadId o = 0; o < buffered_.size(); ++o) {
    if (o != j && clock[o] > cut[o]) return nullptr;
  }
  return b;
}

bool OnlineAnalyzer::canExpand() const {
  // The next level is computable when, for every frontier cut and thread,
  // the candidate next event (j, k_j + 1) is either buffered or known not
  // to exist (trace ended and the thread's stream stops earlier).  Some
  // frontier cut consumed messages 1..consumedK_[j] of thread j, so every
  // cut with k_j < consumedK_[j] already has its j-successor buffered;
  // only the cuts at the per-thread maximum wait, on message
  // consumedK_[j] + 1, which has arrived iff prefix_[j] exceeds it.
  if (frontier_->empty() || prefix_.empty()) return false;
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
  return anyNext || frontier_->size() > 1;
}

void OnlineAnalyzer::expandOneLevel() {
  telemetry::TraceSpan span("lattice.level", "observer");
  telemetry::ScopedTimer levelTimer(ObserverMetrics::get().levelNs);
  const std::size_t violationsBefore = violations_.size();
  const DegradationMode degradationBefore = stats_.degradation;
  std::size_t edges = 0;
  detail::expandLevel(*frontier_, *next_, monitor_, opts_, bus_, scratch_,
                      stats_, violations_, edges,
                      [this](const std::uint32_t* cut, ThreadId j) {
                        return nextAt(cut, j);
                      });
  const std::size_t built = next_->size();
  // Degradation ladder: shed nodes (deterministically) when the level
  // pushes the accounted working set over the budget or the frontier cap.
  // stats_.levels is the pre-increment count, so `next_` sits at level
  // stats_.levels: the sampler salts with the level index, which keeps the
  // survivor sets independent of how many levels one arrival completes.
  detail::enforceBudget(*next_, opts_, stats_, stats_.levels, msets_.bytes(),
                        liveFrontierBytes_,
                        [this](const std::uint32_t* cut) {
                          return observedPathKey(cut);
                        });

  detail::recordLevelEdges(stats_, edges, built);
  stats_.totalNodes += next_->size();
  stats_.peakLevelWidth = std::max(stats_.peakLevelWidth, next_->size());
  stats_.peakLiveNodes =
      std::max(stats_.peakLiveNodes, frontier_->size() + next_->size());
  ++stats_.levels;
  stats_.gcNodes += frontier_->size();
  if constexpr (telemetry::kEnabled) {
    ObserverMetrics& tm = ObserverMetrics::get();
    tm.levels.add(1);
    tm.nodesCreated.add(next_->size());
    tm.nodesGc.add(frontier_->size());
    tm.frontierWidth.record(next_->size());
    tm.monitorStatesPeak.recordMax(
        static_cast<std::int64_t>(stats_.monitorStatesPeak));
    span.arg("level", static_cast<std::int64_t>(stats_.levels - 1));
    span.arg("width", static_cast<std::int64_t>(next_->size()));
    span.arg("edges", static_cast<std::int64_t>(edges));
  }
  liveFrontierBytes_ = detail::frontierBytes(*next_, opts_.recordPaths);
  std::swap(frontier_, next_);
  next_->clear();  // the previous level is garbage; next_ is empty until
                   // the next expandOneLevel builds into it
  frontier_->sortRows();
  if (frontier_->size() <= opts_.maxNodesPerLevel) {
    // A level that trips the width cap ends the run truncated (tryAdvance):
    // it is counted in the stats but neither retained nor dispatched.
    retainLevel(stats_.levels - 1);
    if (bus_ != nullptr) {
      bus_->dispatchLevel(*frontier_, stats_.levels - 1, msets_);
    }
  }

  settleFrontier();

  // Flight-recorder breadcrumbs: one record per level, plus rung changes
  // and fresh violations (the post-mortem story of the run).
  telemetry::FlightRecorder::global().record(
      telemetry::FlightEvent::kLevel, stats_.levels - 1, frontier_->size());
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
  nodes.reserve(frontier_->size());
  for (const std::uint32_t row : frontier_->order()) {
    LevelNode ln;
    ln.cut.k.assign(frontier_->cut(row),
                    frontier_->cut(row) + frontier_->threads());
    ln.state.values.assign(frontier_->state(row),
                           frontier_->state(row) + frontier_->slots());
    ln.pathCount = frontier_->pathCount(row);
    for (std::uint32_t e = frontier_->firstEntry(row); e != detail::Level::kEnd;
         e = frontier_->entry(e).next) {
      ln.monitorStates.push_back(frontier_->entry(e).state);
    }
    nodes.push_back(std::move(ln));
  }
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
  const std::vector<std::uint32_t>& lo = frontier_->low();
  const std::vector<std::uint32_t>& hi = frontier_->high();
  // A cut with k_j = m was reached by consuming messages 1..m of thread j,
  // so pending_ = sum over j of (arrived - maxK): each arrival added one,
  // and the change of maxK comes off here — also when budget shedding
  // moved it backwards.  The maxima double as the consumption watermark
  // the daemon measures emit-to-analyze lag against.
  for (ThreadId j = 0; j < threads; ++j) {
    pending_ += consumedK_[j];
    pending_ -= hi[j];
    consumedK_[j] = hi[j];
  }
  // Release: no cut reaches below lo[j] again, so thread j's messages
  // under it are garbage (witness paths hold EventRefs, not messages).
  if (frontier_->empty()) return;
  for (ThreadId j = 0; j < threads; ++j) {
    releaseBelow(buffered_[j], minK_[j], lo[j]);
    minK_[j] = lo[j];
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
      trace::BinaryCodec::encode(buffered_[j].at(k).msg, enc);
      w.u64(enc.size());
      w.bytes(enc.data(), enc.size());
    }
  }

  const std::vector<std::uint32_t>& sorted = frontier_->order();
  const std::size_t slots = frontier_->slots();

  // The distinct states of the live frontier in sorted order; the frontier
  // below references them by index.  The word after them once held the
  // state arena's hit tally and is kept for the layout.
  std::vector<std::vector<Value>> states;
  states.reserve(sorted.size());
  for (const std::uint32_t row : sorted) {
    states.emplace_back(frontier_->state(row), frontier_->state(row) + slots);
  }
  std::sort(states.begin(), states.end());
  states.erase(std::unique(states.begin(), states.end()), states.end());
  const auto stateIndexOf = [&](std::uint32_t row) {
    const Value* v = frontier_->state(row);
    return static_cast<std::uint64_t>(
        std::lower_bound(states.begin(), states.end(), v,
                         [slots](const std::vector<Value>& a, const Value* b) {
                           return std::lexicographical_compare(
                               a.begin(), a.end(), b, b + slots);
                         }) -
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
  for (const std::uint32_t row : sorted) {
    visitPath(frontier_->anyPath(row));
    for (std::uint32_t e = frontier_->firstEntry(row); e != detail::Level::kEnd;
         e = frontier_->entry(e).next) {
      visitPath(frontier_->entry(e).witness);
    }
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
  for (const std::uint32_t row : sorted) {
    w.u64(frontier_->threads());
    for (std::size_t j = 0; j < frontier_->threads(); ++j) {
      w.u32(frontier_->cut(row)[j]);
    }
    w.u64(stateIndexOf(row));
    w.u64(frontier_->pathCount(row));
    w.u64(frontier_->entryCount(row));
    for (std::uint32_t e = frontier_->firstEntry(row); e != detail::Level::kEnd;
         e = frontier_->entry(e).next) {
      w.u64(frontier_->entry(e).state);
      w.u64(pathIdOf(frontier_->entry(e).witness));
    }
    w.u64(pathIdOf(frontier_->anyPath(row)));
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
      const auto slot = space_.slotOf(dec.message.event.var);
      const detail::BufferedMessage b{
          dec.message, slot ? static_cast<std::uint32_t>(*slot)
                            : detail::BufferedMessage::kNoSlot};
      if (k == 0 || !buffered_[j].emplace(k, b).second) return false;
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

  frontier_->reset(buffered_.size(), space_.size());
  next_->clear();
  std::vector<std::uint32_t> cut(buffered_.size());
  const std::uint64_t frontierCount = r.len(8);
  for (std::uint64_t i = 0; i < frontierCount && r.ok(); ++i) {
    const std::uint64_t n = r.len(4);
    if (n != buffered_.size()) return false;
    for (auto& c : cut) c = r.u32();
    const std::uint64_t stateIdx = r.u64();
    if (stateIdx >= statesByIndex.size()) return false;
    const auto [row, inserted] = frontier_->insert(cut.data());
    const std::vector<Value>& values =
        statesByIndex[static_cast<std::size_t>(stateIdx)].values;
    std::copy(values.begin(), values.end(), frontier_->state(row));
    frontier_->pathCount(row) = r.u64();
    const std::uint64_t mcount = r.len(16);
    for (std::uint64_t m = 0; m < mcount && r.ok(); ++m) {
      const MonitorState ms = r.u64();
      frontier_->addEntry(row, ms, pathAt(r.u64()));
    }
    frontier_->anyPath(row) = pathAt(r.u64());
    if (!inserted) return false;
  }
  frontier_->sortRows();
  // The budget ladder charges this tally on the next level, so it comes
  // from the restored frontier, not from the untrusted blob.
  liveFrontierBytes_ = detail::frontierBytes(*frontier_, opts_.recordPaths);
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
  for (ThreadId j = 0; j < buffered_.size(); ++j) {
    if (frontier_->high()[j] != consumedK_[j]) return false;
    minK_[j] = frontier_->low()[j];
  }
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
    if (frontier_->size() > opts_.maxNodesPerLevel) {
      stats_.truncated = true;
      finalize();
      return;
    }
  }
  if (ended_ && !finished_) {
    // Finished when the frontier is the single complete cut: no thread has
    // a buffered successor.
    bool complete = frontier_->size() == 1;
    if (complete) {
      const std::uint32_t* cut = frontier_->cut(0);
      for (ThreadId j = 0; j < frontier_->threads(); ++j) {
        if (find(j, LocalSeq{cut[j]} + 1) != nullptr) complete = false;
      }
      // Also require no stray unconsumed messages (gap detection).
      if (complete && pending_ == 0) {
        stats_.pathCount = frontier_->pathCount(0);
        finalize();
      }
    }
  }
}

}  // namespace mpx::observer
