#include "core/instrumentor.hpp"

#include "telemetry/metrics.hpp"
#include "telemetry/timer.hpp"

namespace mpx::core {

namespace {

/// Algorithm A telemetry (the "runtime" layer of the metric catalog: these
/// count what the in-program instrumentation does, whichever host drives
/// it — the real-thread runtime or the interpreter pipeline).
struct InstrumentorMetrics {
  telemetry::Counter& relevant;
  telemetry::Counter& irrelevant;
  telemetry::Counter& messages;
  telemetry::Histogram& eventNs;

  static InstrumentorMetrics& get() {
    static InstrumentorMetrics m{
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

}  // namespace

const vc::VectorClock Instrumentor::kZero{};

void Instrumentor::reserve(std::size_t threads, std::size_t vars) {
  if (vi_.size() < threads) vi_.resize(threads);
  if (va_.size() < vars) {
    va_.resize(vars);
    vw_.resize(vars);
  }
}

void Instrumentor::ensureThread(ThreadId t) {
  if (t >= vi_.size()) vi_.resize(static_cast<std::size_t>(t) + 1);
}

void Instrumentor::ensureVar(VarId x) {
  if (x < va_.size()) return;
  va_.resize(static_cast<std::size_t>(x) + 1);
  vw_.resize(static_cast<std::size_t>(x) + 1);
}

void Instrumentor::onEvent(const trace::Event& e) {
  std::uint64_t t0 = 0;
  bool sampled = false;
  if constexpr (telemetry::kEnabled) {
    // Timing every event would double its cost (two clock reads against a
    // handful of vector-clock joins); the period defaults to 1/64 and is
    // configurable via --telemetry-sample / MPX_TELEMETRY_SAMPLE.
    sampled = telemetry::shouldSampleLatency(eventsProcessed_);
    if (sampled) t0 = telemetry::nowNs();
  }
  ++eventsProcessed_;
  const ThreadId i = e.thread;
  ensureThread(i);
  vc::VectorClock& vi = vi_[i];

  // Step 1: if e is relevant then V_i[i] <- V_i[i] + 1.
  const bool relevant = relevance_.isRelevant(e);
  if (relevant) vi.increment(i);

  if (e.accessesVariable() && !causalityExcluded_.contains(e.var)) {
    const VarId x = e.var;
    ensureVar(x);
    if (e.kind == trace::EventKind::kRead) {
      // Step 2: V_i <- max{V_i, V^w_x};  V^a_x <- max{V^a_x, V_i}.
      noteJoin(vi.joinWith(vw_[x]));
      noteJoin(va_[x].joinWith(vi));
    } else {
      // Step 3 (writes and write-like sync events, §3.1):
      // V^w_x <- V^a_x <- V_i <- max{V^a_x, V_i}.
      noteJoin(vi.joinWith(va_[x]));
      va_[x] = vi;
      vw_[x] = vi;
    }
  }

  // Step 4: if e is relevant then send message <e, i, V_i> to observer.
  if (relevant) {
    ++messagesEmitted_;
    sink_->onMessage(trace::Message{e, vi});
  }

  if constexpr (telemetry::kEnabled) {
    InstrumentorMetrics& tm = InstrumentorMetrics::get();
    (relevant ? tm.relevant : tm.irrelevant).add(1);
    if (relevant) tm.messages.add(1);
    if (sampled) tm.eventNs.record(telemetry::nowNs() - t0);
  }
}

const vc::VectorClock& Instrumentor::threadClock(ThreadId t) const {
  return t < vi_.size() ? vi_[t] : kZero;
}

const vc::VectorClock& Instrumentor::accessClock(VarId x) const {
  return x < va_.size() ? va_[x] : kZero;
}

const vc::VectorClock& Instrumentor::writeClock(VarId x) const {
  return x < vw_.size() ? vw_[x] : kZero;
}

}  // namespace mpx::core
