// One iteration of a workload through the real Fig. 4 pipeline:
//
//   generator thread -> core::Instrumentor (Algorithm A) -> net::SocketEmitter
//   -> loopback TCP -> in-process net::ObserverDaemon -> AnalyzerSession
//
// The daemon's progress is observed only through its public accessors: a
// poller thread reads sessionSnapshots() every kPollInterval and keeps a
// per-session timeline (first seen, first message ingested, watermark
// level changes, finished).  Reports are fetched through the daemon's
// /report endpoint and compared byte for byte with the reference.
//
// Set-up is measured by probes rather than by the iteration's own streams:
// the daemon ingests a whole frame under its mutex, so the first message
// of a stream whose generator races ahead becomes visible only after up
// to 128 messages of lattice work.  A probe sends a stream that ends right
// after its first message, so it times exactly bind/connect/handshake/
// session construction/first ingest.
#include <sys/prctl.h>

#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/relevance.hpp"
#include "net/emitter.hpp"
#include "net/observerd.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace perfbench {

std::atomic<const char*> gStage{"start"};

namespace {

constexpr auto kPollInterval = std::chrono::microseconds(50);
constexpr std::int64_t kProbePauseNs = 2'000;
constexpr std::int64_t kProbeDeadlineNs = 10'000'000'000;
/// Trace ids of set-up probes joining a fleet daemon (above any workload's).
constexpr std::uint64_t kProbeTraceBase = 1'000'000;

/// Watches the daemon's sessions from outside, through sessionSnapshots().
class Poller {
 public:
  struct Timeline {
    std::int64_t seenNs = 0;
    std::int64_t firstIngestNs = 0;
    std::int64_t finishedNs = 0;
    std::uint64_t pendingPeak = 0;
    std::string streamError;
    /// (poll time, watermark level) at every change of the level.
    std::vector<std::pair<std::int64_t, std::uint64_t>> levels;
  };

  explicit Poller(const mpx::net::ObserverDaemon& daemon)
      : daemon_(daemon), thread_([this] { loop(); }) {}
  ~Poller() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    thread_.join();
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Waits until every session in `ids` finished or failed, or until
  /// `deadlineNs`.  Returns true when none is left waiting.
  bool waitDone(const std::vector<std::uint64_t>& ids,
                std::int64_t deadlineNs) {
    std::unique_lock<std::mutex> lk(mu_);
    const auto done = [&] {
      for (std::uint64_t id : ids) {
        const auto it = timelines_.find(id);
        if (it == timelines_.end()) return false;
        if (it->second.finishedNs == 0 && it->second.streamError.empty()) {
          return false;
        }
      }
      return true;
    };
    while (!done()) {
      if (nowNs() >= deadlineNs) return false;
      cv_.wait_for(lk, std::chrono::milliseconds(5));
    }
    return true;
  }

  [[nodiscard]] Timeline timeline(std::uint64_t id) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = timelines_.find(id);
    return it != timelines_.end() ? it->second : Timeline{};
  }

 private:
  void loop() {
    // Precise sleeps: the default 50 us timer slack would double the
    // polling period.
    prctl(PR_SET_TIMERSLACK, 1UL);
    while (true) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_) return;
      }
      const std::vector<mpx::net::SessionSnapshot> snaps =
          daemon_.sessionSnapshots();
      const std::int64_t t = nowNs();
      bool changed = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        for (const mpx::net::SessionSnapshot& s : snaps) {
          Timeline& tl = timelines_[s.traceId];
          if (tl.finishedNs != 0 || !tl.streamError.empty()) continue;
          if (tl.seenNs == 0) tl.seenNs = t;
          if (tl.firstIngestNs == 0 &&
              (s.watermarkLevel > 0 || s.pendingMessages > 0 || s.finished)) {
            tl.firstIngestNs = t;
          }
          tl.pendingPeak = std::max<std::uint64_t>(tl.pendingPeak,
                                                   s.pendingMessages);
          if (tl.levels.empty() ||
              tl.levels.back().second != s.watermarkLevel) {
            tl.levels.emplace_back(t, s.watermarkLevel);
          }
          if (s.finished) {
            tl.finishedNs = t;
            changed = true;
          }
          if (!s.streamError.empty()) {
            tl.streamError = s.streamError;
            changed = true;
          }
        }
      }
      if (changed) cv_.notify_all();
      std::this_thread::sleep_for(kPollInterval);
    }
  }

  const mpx::net::ObserverDaemon& daemon_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Timeline> timelines_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses exist
};

/// Forwards to the emitter inside a span (traced run only), so the
/// Instrumentor::onEvent span has the sink call as its child.
class TracedSink final : public mpx::trace::MessageSink {
 public:
  TracedSink(mpx::trace::MessageSink& inner, SpanLog& spans)
      : inner_(inner), spans_(spans) {}
  void onMessage(const mpx::trace::Message& m) override {
    ScopedSpan s(&spans_, "net.SocketEmitter::onMessage");
    inner_.onMessage(m);
  }

 private:
  mpx::trace::MessageSink& inner_;
  SpanLog& spans_;
};

/// One program being driven in the current wave.
struct Live {
  const Program* program = nullptr;
  SessionResult* result = nullptr;
  std::unique_ptr<mpx::net::SocketEmitter> emitter;
  std::unique_ptr<TracedSink> traced;
  std::unique_ptr<mpx::core::Instrumentor> instr;
  std::size_t next = 0;
  /// (messages handed to the emitter so far, time) at batch boundaries.
  std::vector<std::pair<std::uint64_t, std::int64_t>> handoffs;
};

/// The emitting program's relevance: writes of the tracked variables
/// (JMPaX's default, paper §4.1).
mpx::core::RelevancePolicy relevanceFor(const Program& p) {
  return mpx::core::RelevancePolicy::writesOf(trackedIds(p));
}

/// GET /report for one session over the daemon's own port.  Returns false
/// on a transport error or a non-200 answer.
bool fetchReport(std::uint16_t port, const Program& p, std::string& body) {
  mpx::net::Socket s = mpx::net::Socket::connectTo("127.0.0.1", port);
  if (!s.valid()) return false;
  const std::string req = "GET /report?tenant=" + p.tenant +
                          "&trace=" + std::to_string(p.traceId) +
                          " HTTP/1.0\r\n\r\n";
  if (!s.sendAll(req.data(), req.size())) return false;
  std::string resp;
  char buf[16 * 1024];
  while (true) {
    const std::ptrdiff_t n = s.recvSome(buf, sizeof buf);
    if (n < 0) return false;
    if (n == 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t head = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.0 200", 0) != 0 || head == std::string::npos) {
    return false;
  }
  body = resp.substr(head + 4);
  return true;
}

void fail(SessionResult& r, const char* stage, const std::string& why) {
  if (r.failed) return;
  r.failed = true;
  r.failure = std::string(stage) + ": " + why;
}

mpx::net::EmitterOptions emitterFor(const mpx::net::ObserverDaemon& daemon,
                                    const Program& p, std::uint64_t traceId) {
  mpx::net::EmitterOptions eo;
  eo.port = daemon.port();
  eo.handshake = mpx::net::makeHandshake(p.threads, p.specs, p.tracked, p.vars);
  eo.handshake.tenant = p.tenant;
  eo.handshake.traceId = traceId;
  return eo;
}

mpx::net::DaemonOptions daemonOptions() {
  mpx::net::DaemonOptions opts;
  opts.logErrors = false;
  return opts;
}

/// One set-up measurement.  With no `shared` daemon the probe builds its
/// own, and the clock starts before it is built (a single-session
/// workload's start); otherwise it starts at the emitter's construction.
/// It stops once the daemon has ingested the probe's first message.  The
/// probe stream is then finished and its report checked like any other.
void setupProbe(const Program& probe, std::uint64_t traceId,
                const Reference& ref, mpx::net::ObserverDaemon* shared,
                std::int64_t deadlineNs, IterationResult& it) {
  gStage = "setup probe";
  SessionResult r;
  const std::int64_t t0 = nowNs();
  std::optional<mpx::net::ObserverDaemon> own;
  mpx::net::ObserverDaemon* daemon = shared;
  if (daemon == nullptr) {
    own.emplace(daemonOptions());
    if (!own->start()) {
      fail(r, "setup probe", "bind failed");
      it.probes.push_back(std::move(r));
      return;
    }
    daemon = &*own;
  }
  const std::uint64_t before = daemon->messagesIngested();
  mpx::net::SocketEmitter emitter(emitterFor(*daemon, probe, traceId));
  mpx::core::Instrumentor instr(relevanceFor(probe), emitter);
  instr.reserve(probe.threads, probe.vars.size());
  for (const mpx::trace::Event& e : probe.events) instr.onEvent(e);
  const std::int64_t probeDeadline =
      std::min(deadlineNs, t0 + kProbeDeadlineNs);
  while (daemon->messagesIngested() <= before) {
    const std::int64_t now = nowNs();
    if (now > probeDeadline) {
      fail(r, "setup probe", "first message never ingested");
      break;
    }
    // Spin, not sleep (a wake-up would blur a sub-millisecond figure), but
    // leave the daemon's mutex alone for a while between looks.
    while (nowNs() - now < kProbePauseNs) {
    }
  }
  const std::int64_t t1 = nowNs();
  emitter.close();
  if (emitter.failed() || emitter.droppedMessages() != 0) {
    fail(r, "setup probe", "emitter failed or dropped messages");
  }
  // Every other session of the daemon has finished by now.
  if (!daemon->waitFinished(std::chrono::milliseconds(std::max<std::int64_t>(
          0, (deadlineNs - nowNs()) / 1'000'000)))) {
    fail(r, "setup probe", "probe session not finished");
  }
  Program named = probe;
  named.traceId = traceId;
  std::string body;
  if (!r.failed && (!fetchReport(daemon->port(), named, body) ||
                    body != ref.report)) {
    fail(r, "setup probe", "report differs from the in-process reference");
  }
  if (own) own->stop();
  if (!r.failed) it.setupS.push_back(static_cast<double>(t1 - t0) / 1e9);
  it.probes.push_back(std::move(r));
}

}  // namespace

void resetPeakRss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

IterationResult runIteration(const Workload& w,
                             const std::vector<Reference>& refs,
                             const Reference& probeRef, SpanLog* spans,
                             std::int64_t deadlineNs) {
  IterationResult it;
  it.sessions.resize(w.programs.size());
  const bool fleet = w.programs.size() > 1;
  if (!fleet) {
    for (std::size_t i = 0; i < w.setupProbes; ++i) {
      setupProbe(w.probe, w.probe.traceId, probeRef, nullptr, deadlineNs, it);
    }
  }
  resetPeakRss();

  gStage = "daemon start";
  mpx::net::ObserverDaemon daemon(daemonOptions());
  if (!daemon.start()) {
    for (SessionResult& r : it.sessions) fail(r, "daemon start", "bind failed");
    it.stalled = true;
    return it;
  }
  std::optional<Poller> poller(std::in_place, daemon);

  for (std::size_t first = 0; first < w.programs.size() && !it.stalled;
       first += w.concurrent) {
    const std::size_t last = std::min(first + w.concurrent, w.programs.size());
    std::vector<Live> wave(last - first);
    gStage = "connect";
    for (std::size_t i = first; i < last; ++i) {
      Live& l = wave[i - first];
      const Program& p = w.programs[i];
      l.program = &p;
      l.result = &it.sessions[i];
      l.result->createNs = nowNs();
      l.emitter = std::make_unique<mpx::net::SocketEmitter>(
          emitterFor(daemon, p, p.traceId));
      mpx::trace::MessageSink* sink = l.emitter.get();
      if (spans != nullptr) {
        l.traced = std::make_unique<TracedSink>(*l.emitter, *spans);
        sink = l.traced.get();
      }
      l.instr = std::make_unique<mpx::core::Instrumentor>(relevanceFor(p),
                                                          *sink);
      l.instr->reserve(p.threads, p.vars.size());
    }

    // The generator: round-robin over the wave's programs, one event each
    // per turn, with one clock read per batch of events.
    gStage = "stream";
    std::int64_t batchStart = nowNs();
    if (first == 0) it.firstHandoffNs = batchStart;
    std::size_t steps = 0;
    bool any = true;
    while (any) {
      any = false;
      for (Live& l : wave) {
        if (l.next == l.program->events.size()) continue;
        any = true;
        const mpx::trace::Event& e = l.program->events[l.next++];
        if (spans != nullptr) {
          ScopedSpan s(spans, "core.Instrumentor::onEvent");
          l.instr->onEvent(e);
        } else {
          l.instr->onEvent(e);
        }
        if (++steps % w.lagSampleEvents == 0) {
          const std::int64_t t = nowNs();
          if (steps % w.batchEvents == 0) {
            it.batchNsPerEvent.push_back(static_cast<double>(t - batchStart) /
                                         static_cast<double>(w.batchEvents));
            batchStart = t;
          }
          for (Live& m : wave) {
            const std::uint64_t sent = m.instr->messagesEmitted();
            if (sent > 0 && (m.handoffs.empty() ||
                             m.handoffs.back().first != sent)) {
              m.handoffs.emplace_back(sent, t);
            }
          }
        }
      }
    }

    gStage = "close";
    for (Live& l : wave) {
      SessionResult& r = *l.result;
      r.closeCallNs = nowNs();
      {
        ScopedSpan s(spans, "net.SocketEmitter::close");
        l.emitter->close();
      }
      r.closeDoneNs = nowNs();
      r.messages = l.instr->messagesEmitted();
      r.framesSent = l.emitter->framesSent();
      if (l.emitter->failed()) fail(r, "close", "emitter failed");
      if (l.emitter->droppedMessages() != 0) {
        fail(r, "close", std::to_string(l.emitter->droppedMessages()) +
                             " messages dropped");
      }
      it.events += l.instr->eventsProcessed();
      it.messages += r.messages;
      const auto& cs = l.instr->clockStats();
      it.clock.joins += cs.joins;
      it.clock.joinEntriesTouched += cs.joinEntriesTouched;
      it.clock.staleJoins += cs.staleJoins;
    }

    gStage = "verdict";
    std::vector<std::uint64_t> ids;
    for (const Live& l : wave) ids.push_back(l.program->traceId);
    const std::int64_t waveDeadline = std::min(
        deadlineNs,
        nowNs() + std::chrono::duration_cast<std::chrono::nanoseconds>(
                      w.waveDeadline)
                      .count());
    if (!poller->waitDone(ids, waveDeadline)) it.stalled = true;

    for (Live& l : wave) {
      SessionResult& r = *l.result;
      const Poller::Timeline tl = poller->timeline(l.program->traceId);
      r.seenNs = tl.seenNs;
      r.firstIngestNs = tl.firstIngestNs;
      r.finishedNs = tl.finishedNs;
      r.pendingPeak = tl.pendingPeak;
      if (!tl.streamError.empty()) {
        fail(r, "verdict", "stream error: " + tl.streamError);
      } else if (tl.seenNs == 0) {
        fail(r, "handshake", "session never appeared");
      } else if (tl.firstIngestNs == 0) {
        fail(r, "ingest", "no message ingested before the deadline");
      } else if (tl.finishedNs == 0) {
        fail(r, "verdict", "session not finished before the deadline");
      }
      if (r.failed) continue;
      // The n-th message is analyzed once the watermark level reaches n.
      for (const auto& [n, handed] : l.handoffs) {
        const auto at = std::partition_point(
            tl.levels.begin(), tl.levels.end(),
            [n = n](const auto& lv) { return lv.second < n; });
        if (at == tl.levels.end()) continue;
        r.lagMs.push_back(
            static_cast<double>(std::max<std::int64_t>(0, at->first - handed)) /
            1e6);
      }
      it.lastVerdictNs = std::max(it.lastVerdictNs, r.finishedNs);
    }
  }
  it.peakRssMb = peakRssMb();
  poller.reset();
  // A fleet's set-up is a new session joining the loaded daemon, which
  // keeps every finished session.
  if (fleet && !it.stalled) {
    for (std::size_t i = 0; i < w.setupProbes; ++i) {
      setupProbe(w.probe, kProbeTraceBase + i, probeRef, &daemon, deadlineNs,
                 it);
    }
  }

  // Verdict check, outside the timed window: every finished session's
  // report must equal the in-process reference byte for byte (which pins
  // its levels, nodes, peak width and violations), and the daemon must
  // have ingested exactly the messages Algorithm A emitted.
  gStage = "report";
  std::uint64_t expectedMessages = 0;
  for (std::size_t i = 0; i < w.programs.size(); ++i) {
    SessionResult& r = it.sessions[i];
    expectedMessages += refs[i].messages.size();
    if (r.failed) continue;
    if (r.messages != refs[i].messages.size()) {
      fail(r, "report", "emitted " + std::to_string(r.messages) +
                            " messages, reference has " +
                            std::to_string(refs[i].messages.size()));
      continue;
    }
    std::string body;
    if (!fetchReport(daemon.port(), w.programs[i], body)) {
      fail(r, "report", "GET /report failed");
    } else if (body != refs[i].report) {
      fail(r, "report", "report differs from the in-process reference");
    }
  }
  if (fleet) expectedMessages += it.probes.size() * probeRef.messages.size();
  if (!it.stalled && daemon.messagesIngested() != expectedMessages) {
    for (SessionResult& r : it.sessions) {
      fail(r, "report", "daemon ingested " +
                            std::to_string(daemon.messagesIngested()) +
                            " messages, expected " +
                            std::to_string(expectedMessages));
    }
  }
  gStage = "daemon stop";
  daemon.stop();
  return it;
}

}  // namespace perfbench
