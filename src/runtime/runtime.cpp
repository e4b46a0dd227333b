#include "runtime/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/timer.hpp"

namespace mpx::runtime {

namespace {

/// Real-thread runtime telemetry: per-stripe lock contention (the striped
/// successor of the old global-mutex counters) and thread registration.
struct RuntimeMetrics {
  telemetry::Counter& stripeAcquisitions;
  telemetry::Counter& stripeContended;
  telemetry::Histogram& stripeWaitNs;
  telemetry::Gauge& stripeContentionHwm;
  telemetry::Gauge& threads;

  static RuntimeMetrics& get() {
    static RuntimeMetrics m{
        telemetry::registry().counter(
            "mpx_runtime_stripe_acquisitions_total",
            "Acquisitions of per-variable stripe mutexes by the runtime"),
        telemetry::registry().counter(
            "mpx_runtime_stripe_contended_total",
            "Stripe acquisitions that had to wait"),
        telemetry::registry().histogram(
            "mpx_runtime_stripe_wait_ns",
            "Wait time for contended stripe acquisitions"),
        telemetry::registry().gauge(
            "mpx_runtime_stripe_contention_hwm",
            "High-water mark of contended acquisitions on one stripe"),
        telemetry::registry().gauge(
            "mpx_runtime_threads_registered",
            "High-water mark of threads seen by the runtime"),
    };
    return m;
  }
};

/// Algorithm A instruments (same names the interpreter pipeline registers
/// in core/instrumentor.cpp — the registry dedups by name, so both hosts
/// report into the same counters).
struct EventMetrics {
  telemetry::Counter& relevant;
  telemetry::Counter& irrelevant;
  telemetry::Counter& messages;
  telemetry::Histogram& eventNs;

  static EventMetrics& get() {
    static EventMetrics m{
        telemetry::registry().counter(
            "mpx_runtime_events_relevant_total",
            "Events that ticked the thread clock and emitted a message "
            "(Algorithm A steps 1 and 4)"),
        telemetry::registry().counter(
            "mpx_runtime_events_irrelevant_total",
            "Events processed by Algorithm A without emitting a message"),
        telemetry::registry().counter(
            "mpx_runtime_messages_emitted_total",
            "Messages <e, i, V_i> sent toward the observer"),
        telemetry::registry().histogram(
            "mpx_runtime_algorithm_a_ns",
            "Per-event latency of Algorithm A (sampled; default every 64th event)"),
    };
    return m;
  }
};

/// Process-unique registry generations for the thread-local cache (plain
/// pointer keys could alias across a destroy/construct at the same
/// address).
std::uint64_t nextRegistryGeneration() {
  static std::atomic<std::uint64_t> gen{1};
  return gen.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ShardedThreadRegistry::ShardedThreadRegistry()
    : generation_(nextRegistryGeneration()) {}

ThreadState& ShardedThreadRegistry::current() {
  struct CacheEntry {
    std::uint64_t generation = 0;
    ThreadState* state = nullptr;
  };
  thread_local CacheEntry cache;
  if (cache.generation == generation_) return *cache.state;

  const std::thread::id self = std::this_thread::get_id();
  Shard& shard = shards_[std::hash<std::thread::id>{}(self) % kShards];
  std::lock_guard<std::mutex> lk(shard.mu);
  auto& slot = shard.states[self];
  if (slot == nullptr) {
    slot = std::make_unique<ThreadState>();
    slot->id = next_.fetch_add(1, std::memory_order_acq_rel);
    if constexpr (telemetry::kEnabled) {
      RuntimeMetrics::get().threads.recordMax(
          static_cast<std::int64_t>(slot->id) + 1);
    }
  }
  cache = CacheEntry{generation_, slot.get()};
  return *slot;
}

Runtime::Runtime(trace::MessageSink& sink) : sink_(&sink) {
  if constexpr (telemetry::kEnabled) {
    RuntimeMetrics::get();  // register the runtime metric names up front
    EventMetrics::get();
  }
}

VarId Runtime::internVar(const std::string& name, Value initial,
                         trace::VarRole role) {
  std::unique_lock lk(structMu_);
  const VarId id = vars_.intern(name, initial, role);
  while (id >= varStates_.size()) varStates_.emplace_back();
  varStates_[id].value = initial;
  return id;
}

SharedVar Runtime::declare(const std::string& name, Value initial) {
  return SharedVar(*this, internVar(name, initial, trace::VarRole::kData));
}

std::unique_ptr<InstrumentedMutex> Runtime::declareMutex(
    const std::string& name) {
  const VarId id = internVar("__lock_" + name, 0, trace::VarRole::kLock);
  return std::unique_ptr<InstrumentedMutex>(new InstrumentedMutex(*this, id));
}

std::unique_ptr<InstrumentedCondition> Runtime::declareCondition(
    const std::string& name) {
  const VarId id = internVar("__cond_" + name, 0, trace::VarRole::kCondition);
  return std::unique_ptr<InstrumentedCondition>(
      new InstrumentedCondition(*this, id));
}

void Runtime::markRelevant(const std::string& name) {
  std::unique_lock lk(structMu_);
  relevant_.insert(vars_.id(name));
}

Runtime::VarState& Runtime::stateOf(VarId v) {
  if (v >= varStates_.size()) {
    throw std::out_of_range("Runtime: access to undeclared variable id " +
                            std::to_string(v));
  }
  return varStates_[v];
}

Value Runtime::processEvent(trace::EventKind kind, VarId v, Value writeValue) {
  const std::uint64_t eventIndex =
      eventsProcessed_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t t0 = 0;
  bool sampled = false;
  if constexpr (telemetry::kEnabled) {
    // Timing every event would double its cost; the period is 1/64 by
    // default and configurable via --telemetry-sample / MPX_TELEMETRY_SAMPLE.
    sampled = telemetry::shouldSampleLatency(eventIndex);
    if (sampled) t0 = telemetry::nowNs();
  }

  ThreadState& ts = registry_.current();
  VarState& vs = stateOf(v);

  // Stripe acquisition, with contention telemetry.
  std::unique_lock<std::mutex> lk(vs.mu, std::defer_lock);
  if constexpr (telemetry::kEnabled) {
    RuntimeMetrics& tm = RuntimeMetrics::get();
    if (!lk.try_lock()) {
      tm.stripeContended.add(1);
      const std::uint64_t w0 = telemetry::nowNs();
      lk.lock();
      tm.stripeWaitNs.record(telemetry::nowNs() - w0);
      tm.stripeContentionHwm.recordMax(
          static_cast<std::int64_t>(++vs.contended));
    }
    tm.stripeAcquisitions.add(1);
  } else {
    lk.lock();
  }

  // The event's value: reads observe, writes store, sync events bump the
  // dummy variable (so every acquire/release is a fresh write).
  Value value;
  switch (kind) {
    case trace::EventKind::kRead:
      value = vs.value;
      break;
    case trace::EventKind::kWrite:
      vs.value = writeValue;
      value = writeValue;
      break;
    default:
      value = ++vs.value;
      break;
  }

  trace::Event e;
  e.kind = kind;
  e.thread = ts.id;
  e.var = v;
  e.value = value;
  e.localSeq = ts.nextLocal++;
  // Drawn while holding the stripe: same-variable events get seqs in their
  // serialization order, so ≺ implies seq order (header invariant).
  e.globalSeq = nextSeq_.fetch_add(1, std::memory_order_acq_rel);

  // Maintain per-thread locksets (acquire counts itself; release drops
  // before recording — mirroring program::ExecutionRecord's convention).
  if (kind == trace::EventKind::kLockAcquire) {
    ts.heldLocks.push_back(v);
  } else if (kind == trace::EventKind::kLockRelease) {
    const auto it = std::find(ts.heldLocks.begin(), ts.heldLocks.end(), v);
    if (it != ts.heldLocks.end()) ts.heldLocks.erase(it);
  }

  // Algorithm A (paper Fig. 2).  Step 1: tick if relevant.
  const bool relevant = trace::isWriteLike(kind) && relevant_.contains(v);
  if (relevant) ts.vi.increment(ts.id);
  if (kind == trace::EventKind::kRead) {
    // Step 2: V_i <- max{V_i, V^w_x};  V^a_x <- max{V^a_x, V_i}.
    ts.vi.joinWith(vs.vw);
    vs.va.joinWith(ts.vi);
  } else {
    // Step 3 (writes and write-like sync events, §3.1):
    // V^w_x <- V^a_x <- V_i <- max{V^a_x, V_i}.
    ts.vi.joinWith(vs.va);
    vs.va = ts.vi;
    vs.vw = ts.vi;
  }

  if (recording_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> rlk(recordMu_);
    recorded_.push_back(RecordedEvent{e, ts.heldLocks});
  }

  // Step 4: if e is relevant then send message <e, i, V_i> to observer.
  if (relevant) {
    messagesEmitted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> slk(sinkMu_);
    sink_->onMessage(trace::Message{e, ts.vi});
  }

  if constexpr (telemetry::kEnabled) {
    EventMetrics& tm = EventMetrics::get();
    (relevant ? tm.relevant : tm.irrelevant).add(1);
    if (relevant) tm.messages.add(1);
    if (sampled) tm.eventNs.record(telemetry::nowNs() - t0);
  }
  return value;
}

Value Runtime::read(VarId v) {
  std::shared_lock lk(structMu_);
  return processEvent(trace::EventKind::kRead, v, 0);
}

void Runtime::write(VarId v, Value value) {
  std::shared_lock lk(structMu_);
  processEvent(trace::EventKind::kWrite, v, value);
}

void Runtime::syncEvent(trace::EventKind kind, VarId v) {
  std::shared_lock lk(structMu_);
  processEvent(kind, v, 0);
}

void Runtime::atomicBegin(Value regionId) {
  regionMarker(trace::EventKind::kRegionBegin, regionId);
}

void Runtime::atomicEnd(Value regionId) {
  regionMarker(trace::EventKind::kRegionEnd, regionId);
}

void Runtime::regionMarker(trace::EventKind kind, Value regionId) {
  std::shared_lock lk(structMu_);
  eventsProcessed_.fetch_add(1, std::memory_order_relaxed);
  ThreadState& ts = registry_.current();

  trace::Event e;
  e.kind = kind;
  e.thread = ts.id;
  e.var = kNoVar;
  e.value = regionId;
  e.localSeq = ts.nextLocal++;
  // No stripe to hold: a region marker's only causal predecessors are the
  // same thread's earlier events, whose seqs were drawn before this call
  // started — fetch_add monotonicity preserves the seq-order invariant.
  e.globalSeq = nextSeq_.fetch_add(1, std::memory_order_acq_rel);

  // Region markers are unconditionally relevant: tick and emit, no joins
  // (the event accesses no variable, so Algorithm A steps 2-3 are vacuous).
  ts.vi.increment(ts.id);

  if (recording_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> rlk(recordMu_);
    recorded_.push_back(RecordedEvent{e, ts.heldLocks});
  }

  messagesEmitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> slk(sinkMu_);
    sink_->onMessage(trace::Message{e, ts.vi});
  }

  if constexpr (telemetry::kEnabled) {
    EventMetrics& tm = EventMetrics::get();
    tm.relevant.add(1);
    tm.messages.add(1);
  }
}

void Runtime::enableRecording() {
  recording_.store(true, std::memory_order_release);
}

std::vector<Runtime::RecordedEvent> Runtime::takeRecording() {
  std::vector<RecordedEvent> out;
  {
    std::lock_guard<std::mutex> lk(recordMu_);
    out = std::move(recorded_);
    recorded_.clear();
  }
  // Restore the total order M: stripes append as they finish, which can
  // differ from globalSeq order across variables.
  std::sort(out.begin(), out.end(),
            [](const RecordedEvent& a, const RecordedEvent& b) {
              return a.event.globalSeq < b.event.globalSeq;
            });
  return out;
}

std::vector<detect::RaceReport> Runtime::analyzeRaces(
    const std::vector<RecordedEvent>& recording,
    const std::vector<std::string>& varNames, detect::RaceOptions opts) const {
  std::unordered_set<VarId> candidates;
  {
    std::shared_lock lk(structMu_);
    for (const auto& name : varNames) candidates.insert(vars_.id(name));
  }

  trace::CollectingSink sink;
  core::Instrumentor instr(core::RelevancePolicy::accessesOf(candidates),
                           sink);
  instr.excludeFromCausality(candidates);
  std::unordered_map<GlobalSeq, std::vector<LockId>> locksets;
  for (const RecordedEvent& r : recording) {
    instr.onEvent(r.event);
    locksets.emplace(r.event.globalSeq,
                     std::vector<LockId>(r.locksHeld.begin(),
                                         r.locksHeld.end()));
  }
  return detect::RacePredictor{opts}.analyze(sink.messages(), locksets);
}

std::uint64_t Runtime::eventsProcessed() const {
  return eventsProcessed_.load(std::memory_order_relaxed);
}

std::uint64_t Runtime::messagesEmitted() const {
  return messagesEmitted_.load(std::memory_order_relaxed);
}

std::size_t Runtime::threadsSeen() const { return registry_.threadCount(); }

void InstrumentedMutex::lock() {
  m_.lock();
  rt_->syncEvent(trace::EventKind::kLockAcquire, lockVar_);
}

void InstrumentedMutex::unlock() {
  rt_->syncEvent(trace::EventKind::kLockRelease, lockVar_);
  m_.unlock();
}

}  // namespace mpx::runtime
