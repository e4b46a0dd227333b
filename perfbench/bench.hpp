// Shared pieces of the mpx end-to-end benchmark: the seeded workload
// description, the in-process reference, timing helpers and the span
// recorder used by the traced run.  See README.md for what is measured.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/instrumentor.hpp"
#include "observer/analysis.hpp"
#include "observer/lattice_types.hpp"
#include "trace/event.hpp"
#include "trace/var_table.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One traced execution of an instrumented program: what its emitter's
/// handshake declares plus the events, in the execution's total order, that
/// the generator feeds to Algorithm A.  One program is one daemon session.
struct Program {
  std::string tenant;
  std::uint64_t traceId = 0;
  std::uint32_t threads = 0;
  mpx::trace::VarTable vars;
  std::vector<std::string> tracked;
  std::vector<std::string> specs;
  std::vector<mpx::trace::Event> events;
};

/// A workload: the programs one iteration runs, in waves of `concurrent`
/// emitters that the single generator thread drives round-robin.
struct Workload {
  std::string name;
  std::vector<Program> programs;
  std::size_t concurrent = 1;
  /// Generator steps per timed batch (program_ns_per_event).
  std::size_t batchEvents = 32;
  /// Generator steps per analyze-lag sample; divides batchEvents.  The lag
  /// samples reuse these clock reads, which the timed batches then include.
  std::size_t lagSampleEvents = 32;
  /// Longest a single wave may take before its sessions count as failed.
  std::chrono::milliseconds waveDeadline{30000};
  /// Set-up measurements per iteration (see setup probes in pipeline.cpp).
  std::size_t setupProbes = 8;
  /// The first program cut after its first relevant event: the stream a
  /// set-up probe sends.
  Program probe;
};

/// Builds the named workload from `seed`; throws std::invalid_argument for
/// an unknown name.
[[nodiscard]] Workload makeWorkload(const std::string& name,
                                    std::uint64_t seed);

/// Variable ids of the program's tracked (relevant) variables.
[[nodiscard]] std::unordered_set<mpx::VarId> trackedIds(const Program& p);

/// What the daemon must report for a program, computed in process by an
/// AnalyzerSession fed the messages Algorithm A emits for it.
struct Reference {
  std::vector<mpx::trace::Message> messages;
  std::string report;  ///< the daemon's /report body for the session
  mpx::observer::LatticeStats stats;
  std::size_t violations = 0;
};

[[nodiscard]] Reference computeReference(const Program& p);

/// The /report body layout: the paper-notation report plus the per-plugin
/// reports.  Shared by the reference and the staged replay.
[[nodiscard]] std::string sessionReportBody(
    const std::string& report,
    const std::vector<mpx::observer::AnalysisReport>& plugins);

// --- statistics ------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] inline double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// --- the end-to-end pipeline ---------------------------------------------

/// The benchmark step currently running, for the watchdog's stall report.
extern std::atomic<const char*> gStage;

class SpanLog;

/// One session's measurements.  Times are steady-clock ns.
struct SessionResult {
  bool failed = false;
  std::string failure;  ///< "<stage>: <reason>" when failed
  std::int64_t createNs = 0;       ///< emitter construction
  std::int64_t seenNs = 0;         ///< session visible in sessionSnapshots()
  std::int64_t firstIngestNs = 0;  ///< daemon ingested the first message
  std::int64_t closeCallNs = 0;    ///< generator called close()
  std::int64_t closeDoneNs = 0;    ///< close() returned
  std::int64_t finishedNs = 0;     ///< session finished(), report renderable
  std::uint64_t messages = 0;
  std::uint64_t framesSent = 0;
  std::uint64_t pendingPeak = 0;
  std::vector<double> lagMs;  ///< emit-to-analyzed lag of sampled messages
};

/// One pass of a workload through a fresh daemon.
struct IterationResult {
  std::vector<SessionResult> sessions;
  /// Set-up probe sessions and the set-up time each measured, in s.
  std::vector<SessionResult> probes;
  std::vector<double> setupS;
  std::int64_t firstHandoffNs = 0;  ///< first event handed to Algorithm A
  std::int64_t lastVerdictNs = 0;   ///< last session finished
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  mpx::core::Instrumentor::ClockStats clock;
  /// Generator ns per event, one entry per batch of Workload::batchEvents.
  std::vector<double> batchNsPerEvent;
  double peakRssMb = 0;
  bool stalled = false;  ///< a wave missed its deadline: stop the run
};

/// Runs every program of `w` through Algorithm A -> SocketEmitter ->
/// loopback TCP -> ObserverDaemon and checks each session's report against
/// its reference.  With `spans`, the generator's calls into the program are
/// recorded as spans.
[[nodiscard]] IterationResult runIteration(const Workload& w,
                                           const std::vector<Reference>& refs,
                                           const Reference& probeRef,
                                           SpanLog* spans,
                                           std::int64_t deadlineNs);

/// Resets the process's resident-memory high-water mark and reads it in
/// MiB.
void resetPeakRss();
[[nodiscard]] double peakRssMb();

// --- staged replay (traced run only) ------------------------------------

/// Per-layer costs from replaying a workload's messages, in one thread,
/// through the public calls the daemon makes.
struct StagedResult {
  double encodeNsPerMsg = 0;
  double wireBytesPerMsg = 0;
  double socketNsPerKiB = 0;
  double readNsPerFrame = 0;
  double decodeNsPerMsg = 0;
  double sessionNewMs = 0;      ///< median over sessions
  double ingestNsPerMsg = 0;
  double ingestGrowth = 0;      ///< last tenth / first tenth, ns per msg
  double finishMs = 0;          ///< median over sessions
  double reportMs = 0;          ///< median over sessions
  double structureNsPerMsg = 0;
  double nsPerNode = 0;
  double monitorNsPerNode = 0;
  double stagedDaemonNsPerMsg = 0;  ///< read + decode + ingest + finish
  bool reportsMatch = true;
};

/// `msgsPerFrame` is the batch size the emitter achieved in the run.
[[nodiscard]] StagedResult runStaged(const Workload& w,
                                     const std::vector<Reference>& refs,
                                     double msgsPerFrame, SpanLog& spans);

// --- spans (traced run only) -------------------------------------------

/// In-memory span log: name, start, end and the index of the enclosing
/// span.  Written out once, as Chrome trace-event JSON, when the run ends.
class SpanLog {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = kNoParent;
  };

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name) {
    spans_.push_back(Span{name, nowNs(), 0, current_});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
    current_ = spans_[static_cast<std::size_t>(idx)].parent;
  }

  [[nodiscard]] std::int64_t durationNs(std::int32_t idx) const {
    const Span& s = spans_[static_cast<std::size_t>(idx)];
    return s.endNs - s.startNs;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Total and self time (span minus its child spans) of every span named
  /// `name`, with the span count.
  struct Totals {
    std::uint64_t count = 0;
    double totalNs = 0;
    double selfNs = 0;
  };
  [[nodiscard]] Totals totals(const char* name) const;
  /// Durations of every span named `name`, in ns.
  [[nodiscard]] std::vector<double> durations(const char* name) const;

  /// Writes the log as Chrome trace-event JSON ("X" complete events, with
  /// the parent index as an argument).  At most `maxSpans` are written;
  /// the rest are counted in the metadata.  Returns false on I/O error.
  bool writeChromeJson(const std::string& path, std::size_t maxSpans) const;

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = kNoParent;
};

/// RAII span on an optional log (null = untraced, no clock reads).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), idx_(log != nullptr ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

}  // namespace perfbench
