#include "net/observerd.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "analysis/report.hpp"
#include "net/snapshot.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timer.hpp"
#include "telemetry/trace_span.hpp"

namespace mpx::net {

namespace {

/// Daemon-side transport telemetry.
struct DaemonMetrics {
  telemetry::Counter& bytesRx;
  telemetry::Counter& framesRx;
  telemetry::Counter& framesCorrupt;
  telemetry::Counter& connections;
  telemetry::Counter& connectionsAborted;
  telemetry::Counter& messagesIngested;
  telemetry::Counter& duplicatesIgnored;
  telemetry::Counter& connectionsShed;

  static DaemonMetrics& get() {
    auto& reg = telemetry::registry();
    static DaemonMetrics m{
        reg.counter("mpx_net_bytes_rx_total",
                    "Bytes read from client sockets"),
        reg.counter("mpx_net_frames_rx_total",
                    "Whole frames received from clients"),
        reg.counter("mpx_net_frames_corrupt_total",
                    "Connections dropped for corrupt or malformed frames"),
        reg.counter("mpx_net_connections_total",
                    "Client connections accepted"),
        reg.counter("mpx_net_connections_aborted_total",
                    "Connections that died before end-of-trace"),
        reg.counter("mpx_net_messages_ingested_total",
                    "Messages fed into the online analyzer"),
        reg.counter("mpx_net_duplicates_ignored_total",
                    "Resent messages deduplicated (at-least-once delivery)"),
        reg.counter("mpx_net_connections_shed_total",
                    "Connections turned away by admission control "
                    "(connection cap or memory budget exhausted)"),
    };
    return m;
  }
};

/// Cross-process pipeline telemetry (tentpole of the observability layer):
/// how far behind the instrumented program the observer runs.
struct PipelineMetrics {
  telemetry::Histogram& receiveLagNs;
  telemetry::Histogram& analyzeLagNs;
  telemetry::Gauge& watermarkLevel;
  telemetry::Gauge& framesInFlight;
  telemetry::Gauge& streamsActive;

  static PipelineMetrics& get() {
    auto& reg = telemetry::registry();
    static PipelineMetrics m{
        reg.histogram("mpx_pipeline_receive_lag_ns",
                      "Emit-to-receive lag of timestamped event frames"),
        reg.histogram("mpx_pipeline_analyze_lag_ns",
                      "Emit-to-analyze lag: frame send until every message "
                      "of the frame is folded into the lattice"),
        reg.gauge("mpx_pipeline_watermark_level",
                  "Last fully-analyzed lattice level"),
        reg.gauge("mpx_pipeline_frames_in_flight",
                  "Timestamped frames received but not yet fully analyzed"),
        reg.gauge("mpx_pipeline_streams_active",
                  "Streams with a handshake but no end-of-trace yet"),
    };
    return m;
  }
};

/// Fleet/multi-tenant telemetry: session routing, epoch checkpoints,
/// restores, and per-tenant admission control.
struct FleetMetrics {
  telemetry::Gauge& sessionsActive;
  telemetry::Gauge& tenantsActive;
  telemetry::Counter& checkpoints;
  telemetry::Counter& checkpointBytes;
  telemetry::Counter& checkpointFailures;
  telemetry::Counter& restores;
  telemetry::Counter& tenantShed;

  static FleetMetrics& get() {
    auto& reg = telemetry::registry();
    static FleetMetrics m{
        reg.gauge("mpx_fleet_sessions_active",
                  "Live analyzer sessions, one per (tenant, trace id)"),
        reg.gauge("mpx_fleet_tenants_active",
                  "Tenants with at least one live session"),
        reg.counter("mpx_fleet_checkpoints_total",
                    "Snapshot files written (epoch + explicit checkpoints)"),
        reg.counter("mpx_fleet_checkpoint_bytes_total",
                    "Bytes written into snapshot files"),
        reg.counter("mpx_fleet_checkpoint_failures_total",
                    "Snapshot writes that failed (previous file kept)"),
        reg.counter("mpx_fleet_restores_total",
                    "Analyzer sessions rebuilt from a snapshot at startup"),
        reg.counter("mpx_fleet_tenant_shed_total",
                    "Connections rejected by the per-tenant connection cap"),
    };
    return m;
  }
};

/// Lag clamped at zero: raw monotonic clocks on one machine share an
/// epoch, but scheduling can still order the reads unhelpfully.
std::uint64_t lagNs(std::uint64_t recvNs, std::uint64_t sendNs) noexcept {
  return recvNs > sendNs ? recvNs - sendNs : 0;
}

void appendJsonU64(std::string& out, const char* key, std::uint64_t v,
                   bool comma = true) {
  out += '"';
  out += key;
  out += "\": ";
  out += std::to_string(v);
  if (comma) out += ", ";
}

void appendJsonStr(std::string& out, const char* key, const std::string& v,
                   bool comma = true) {
  out += '"';
  out += key;
  out += "\": \"";
  for (const char c : v) {
    // Tenant names are operator-chosen tokens; escape just enough that a
    // hostile handshake cannot break the JSON framing.
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  out += '"';
  if (comma) out += ", ";
}

void appendLagJson(std::string& out, const char* key, const LagStats& lag) {
  out += '"';
  out += key;
  out += "\": {";
  appendJsonU64(out, "count", lag.count);
  appendJsonU64(out, "sum_ns", lag.sumNs);
  appendJsonU64(out, "mean_ns", lag.meanNs());
  appendJsonU64(out, "max_ns", lag.maxNs);
  appendJsonU64(out, "last_ns", lag.lastNs, /*comma=*/false);
  out += '}';
}

/// One "key=value" query parameter, unescaped verbatim (tenant names are
/// expected to be URL-safe tokens).
std::string queryParam(const std::string& query, const char* key) {
  const std::string needle = std::string(key) + '=';
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    if (query.compare(pos, needle.size(), needle) == 0) {
      return query.substr(pos + needle.size(), end - pos - needle.size());
    }
    pos = end + 1;
  }
  return {};
}

}  // namespace

std::string renderViolationReport(const observer::StateSpace& space,
                                  const std::vector<observer::Violation>& vs,
                                  const observer::LatticeStats& stats,
                                  bool finished) {
  // The daemon and mpx_cli share ONE rendering + exit-code path; this
  // net-namespace name survives for the e2e byte-equality tests.
  return analysis::renderViolationReport(space, vs, stats, finished);
}

struct ObserverDaemon::Conn {
  Socket sock;
  std::thread thread;
  bool sawHandshake = false;
  bool sawEnd = false;
  /// Stream id from this connection's handshake (0 for v1/v2 peers).
  std::uint64_t streamId = 0;
  /// Protocol version the handshake declared.  Region events (wire v6
  /// capability) are rejected on connections that handshook below
  /// kRegionProtocolVersion — an old emitter cannot emit a kind it does
  /// not know, so such a frame is corruption or hostility.
  std::uint16_t version = 0;
  /// Session routing key from the handshake (""/0 for pre-v5 peers).
  std::string tenant;
  std::uint64_t traceId = 0;
  /// Set by the serving thread when it is done with the socket.  The fd is
  /// closed only after joining that thread (by the reaper or by stop()),
  /// so stop()'s shutdownBoth() never races a close().
  std::atomic<bool> done{false};
};

ObserverDaemon::ObserverDaemon(DaemonOptions opts) : opts_(std::move(opts)) {
  if (opts_.expectedStreams == 0) opts_.expectedStreams = 1;
}

ObserverDaemon::~ObserverDaemon() { stop(); }

bool ObserverDaemon::start() {
  if (!listener_.open(opts_.port)) return false;
  // Register the pipeline instruments up front so a /metrics scrape of an
  // idle daemon already exposes the series (gauges at zero, empty
  // histograms) instead of appearing only after the first frame.
  PipelineMetrics::get();
  if constexpr (telemetry::kEnabled) FleetMetrics::get();
  if (!opts_.checkpointPath.empty()) {
    // Resume-on-start: rebuild every checkpointed session.  A missing file
    // is a fresh start, not an error; a corrupt file is reported and
    // ignored (the daemon still comes up, emitters replay from scratch and
    // the reports say INCOMPLETE where the replay cannot cover the gap).
    std::vector<SnapshotEntry> entries;
    const char* err = nullptr;
    if (readSnapshotFile(opts_.checkpointPath, entries, &err)) {
      std::lock_guard<std::mutex> lk(mu_);
      for (const SnapshotEntry& e : entries) {
        observer::ckpt::Reader r(e.blob.data(), e.blob.size());
        auto session = analysis::AnalyzerSession::restore(r);
        if (session == nullptr) {
          logError("checkpoint session blob unusable; skipping");
          continue;
        }
        SessionState ss;
        ss.violationsSeen = session->violations().size();
        ss.session = std::move(session);
        sessions_[SessionKey{e.tenant, e.traceId}] = std::move(ss);
        ++sessionsRestored_;
        if constexpr (telemetry::kEnabled) FleetMetrics::get().restores.add(1);
      }
      if constexpr (telemetry::kEnabled) {
        FleetMetrics::get().sessionsActive.set(
            static_cast<std::int64_t>(sessions_.size()));
      }
    } else if (err != nullptr &&
               std::strcmp(err, "cannot open snapshot file") != 0) {
      logError(err);
    }
  }
  acceptThread_ = std::thread([this] { acceptLoop(); });
  return true;
}

std::uint16_t ObserverDaemon::port() const noexcept {
  return listener_.port();
}

void ObserverDaemon::acceptLoop() {
  while (true) {
    Socket s = listener_.accept();
    if (!s.valid()) return;  // stopped or listener error
    // Admission control: turn the connection away (with a one-line notice)
    // when the live-connection cap is hit or any analyzer's accounted
    // working set already sits above its memory budget.  Shedding load at
    // the door keeps the daemon alive and its existing streams progressing;
    // the analysis is then INCOMPLETE/BOUNDED, which the report states.
    bool shed = false;
    if (opts_.maxConnections > 0) {
      std::lock_guard<std::mutex> lk(connsMu_);
      if (stopping_) return;
      reapFinishedLocked();
      shed = conns_.size() >= opts_.maxConnections;
    }
    if (!shed && opts_.lattice.memoryBudgetBytes > 0) {
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& [key, ss] : sessions_) {
        if (ss.session != nullptr &&
            ss.session->stats().accountedBytes >
                opts_.lattice.memoryBudgetBytes) {
          shed = true;
          break;
        }
      }
    }
    if (shed) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++shed_;
      }
      if constexpr (telemetry::kEnabled) {
        DaemonMetrics::get().connectionsShed.add(1);
      }
      telemetry::FlightRecorder::global().record(
          telemetry::FlightEvent::kConnShed);
      logError("shedding connection: observer at capacity");
      static const char kNotice[] =
          "MPX-SHED observer at capacity; retry later\n";
      s.sendAll(kNotice, sizeof kNotice - 1);
      s.shutdownBoth();
      continue;  // Socket destructor closes the fd
    }
    auto conn = std::make_shared<Conn>();
    conn->sock = std::move(s);
    {
      std::lock_guard<std::mutex> lk(connsMu_);
      if (stopping_) return;
      reapFinishedLocked();
      conns_.push_back(conn);
    }
    std::uint64_t ordinal = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ordinal = ++accepted_;
    }
    if constexpr (telemetry::kEnabled) DaemonMetrics::get().connections.add(1);
    telemetry::FlightRecorder::global().record(
        telemetry::FlightEvent::kConnAccepted, ordinal);
    conn->thread = std::thread([this, conn] { serveConnection(conn); });
  }
}

void ObserverDaemon::reapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);  // Socket destructor closes the fd
    } else {
      ++it;
    }
  }
}

void ObserverDaemon::serveConnection(std::shared_ptr<Conn> conn) {
  // Marks the connection reapable on every exit path.
  struct DoneGuard {
    Conn& c;
    ~DoneGuard() { c.done.store(true, std::memory_order_release); }
  } guard{*conn};

  FrameReader reader(opts_.maxFramePayload);
  std::uint8_t buf[16 * 1024];
  std::vector<std::uint8_t> head;  // first bytes, until classified
  bool isFrameStream = false;
  bool isHttp = false;
  const char* error = nullptr;
  // An HTTP probe's request line is read in full before routing (it may
  // arrive byte by byte); anything longer than this is not a real probe.
  constexpr std::size_t kMaxRequestLine = 4096;

  while (error == nullptr) {
    const std::ptrdiff_t n = conn->sock.recvSome(buf, sizeof buf);
    if (n < 0) {
      error = "connection error";
      break;
    }
    if (n == 0) {
      if (isHttp) error = "http request truncated";
      break;  // peer closed
    }
    if constexpr (telemetry::kEnabled) {
      DaemonMetrics::get().bytesRx.add(static_cast<std::uint64_t>(n));
    }
    if (!isFrameStream) {
      // Decide what this connection is from its first four bytes: MPX
      // frames start with the magic; anything ASCII-request-shaped gets
      // the introspection API; the rest is garbage and is disconnected.
      head.insert(head.end(), buf, buf + n);
      if (head.size() < 4 && !isHttp) continue;
      std::uint32_t magic = 0;
      if (head.size() >= 4) std::memcpy(&magic, head.data(), 4);
      if (isHttp || magic != kFrameMagic) {
        const std::string text(reinterpret_cast<const char*>(head.data()),
                               head.size());
        if (isHttp || text.rfind("GET", 0) == 0 ||
            text.rfind("HEAD", 0) == 0) {
          isHttp = true;
          // Route only once the whole request line is here.
          const std::size_t eol = text.find('\n');
          if (eol == std::string::npos) {
            if (head.size() > kMaxRequestLine) {
              error = "http request line too long";
              break;
            }
            continue;
          }
          serveHttp(conn->sock, text.substr(0, eol));
          std::lock_guard<std::mutex> lk(mu_);
          ++rejected_;  // not an MPX stream (benign probe)
          return;
        }
        error = "not an MPX frame stream";
        break;
      }
      isFrameStream = true;
      reader.feed(head.data(), head.size());
      head.clear();
    } else {
      reader.feed(buf, static_cast<std::size_t>(n));
    }

    Frame frame;
    FrameReader::Status st;
    while ((st = reader.next(frame)) == FrameReader::Status::kFrame) {
      if constexpr (telemetry::kEnabled) DaemonMetrics::get().framesRx.add(1);
      if (!handleFrame(*conn, frame, &error)) break;
    }
    if (error == nullptr && st == FrameReader::Status::kCorrupt) {
      error = reader.error();
    }
  }

  // Half-close only: the fd itself is closed after this thread is joined,
  // so a concurrent stop() can safely shutdownBoth() on it.
  conn->sock.shutdownBoth();
  std::lock_guard<std::mutex> lk(mu_);
  if (conn->sawHandshake) {
    // Release the tenant's admission-control slot.
    auto it = tenantLive_.find(conn->tenant);
    if (it != tenantLive_.end() && it->second > 0 && --it->second == 0) {
      tenantLive_.erase(it);
    }
  }
  if (error != nullptr) {
    logError(error);
    if constexpr (telemetry::kEnabled) {
      DaemonMetrics::get().framesCorrupt.add(1);
    }
    if (conn->sawHandshake && !conn->sawEnd) {
      ++aborted_;
      if constexpr (telemetry::kEnabled) {
        DaemonMetrics::get().connectionsAborted.add(1);
      }
      telemetry::FlightRecorder::global().record(
          telemetry::FlightEvent::kConnAborted, conn->streamId);
    } else {
      ++rejected_;
    }
  } else if (conn->sawHandshake && !conn->sawEnd) {
    // Client vanished mid-stream (SIGKILL, network reset): the analyzer
    // keeps whatever arrived; finalization may now be impossible, which
    // the report states honestly.
    logError("client closed before end-of-trace");
    ++aborted_;
    if constexpr (telemetry::kEnabled) {
      DaemonMetrics::get().connectionsAborted.add(1);
    }
    telemetry::FlightRecorder::global().record(
        telemetry::FlightEvent::kConnAborted, conn->streamId);
  } else if (!conn->sawHandshake && (isFrameStream || !head.empty())) {
    // Sent some bytes but died before a complete handshake (e.g. a frame
    // cut mid-header).  Nothing reached the analyzer.
    logError("client closed before a complete handshake");
    ++rejected_;
  }
}

bool ObserverDaemon::handleFrame(Conn& conn, const Frame& frame,
                                 const char** error) {
  telemetry::FlightRecorder::global().record(
      telemetry::FlightEvent::kFrame, conn.streamId,
      static_cast<std::uint64_t>(frame.type), frame.payload.size());
  switch (frame.type) {
    case FrameType::kHandshake:
      return handleHandshake(conn, frame, error);
    case FrameType::kEvents:
    case FrameType::kEventsTs:
    case FrameType::kEventsSparse:
      return handleEvents(conn, frame, error);
    case FrameType::kEndOfTrace:
      if (!conn.sawHandshake) {
        *error = "end-of-trace before handshake";
        return false;
      }
      if (conn.sawEnd) {
        *error = "duplicate end-of-trace";
        return false;
      }
      conn.sawEnd = true;
      telemetry::FlightRecorder::global().record(
          telemetry::FlightEvent::kStreamEnd, conn.streamId);
      noteStreamEnd(conn);
      return true;
  }
  *error = "unknown frame type";
  return false;
}

bool ObserverDaemon::handleHandshake(Conn& conn, const Frame& frame,
                                     const char** error) {
  Handshake h;
  if (!decodeHandshake(frame.payload, h, error)) return false;
  if (h.threads == 0) {
    *error = "handshake declares zero threads";
    return false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (conn.sawHandshake) {
    // A reconnecting emitter resends its handshake on a NEW connection,
    // never the same one, so a second handshake here is a protocol error.
    *error = "duplicate handshake";
    return false;
  }
  // Per-tenant admission control: one tenant flooding connections must not
  // starve the others.  Applied before any session is built.
  if (opts_.maxConnsPerTenant > 0) {
    const auto it = tenantLive_.find(h.tenant);
    if (it != tenantLive_.end() && it->second >= opts_.maxConnsPerTenant) {
      ++shed_;
      if constexpr (telemetry::kEnabled) {
        DaemonMetrics::get().connectionsShed.add(1);
        FleetMetrics::get().tenantShed.add(1);
      }
      telemetry::FlightRecorder::global().record(
          telemetry::FlightEvent::kConnShed);
      *error = "tenant over connection limit";
      return false;
    }
  }
  const SessionKey key{h.tenant, h.traceId};
  auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    // First handshake of this (tenant, trace): build the session.  The
    // active property set is the handshake specs plus daemon-side
    // --property additions, first-seen order, deduplicated.
    analysis::AnalyzerSession::Config cfg;
    cfg.threads = h.threads;
    cfg.handshakeSpecs = h.specs;
    cfg.specs = h.specs;
    for (const std::string& extra : opts_.extraSpecs) {
      if (std::find(cfg.specs.begin(), cfg.specs.end(), extra) ==
          cfg.specs.end()) {
        cfg.specs.push_back(extra);
      }
    }
    cfg.tracked = h.tracked;
    cfg.vars = h.vars;
    cfg.analyses = opts_.analyses;
    cfg.expectedStreams = opts_.expectedStreams;
    cfg.lattice = opts_.lattice;
    try {
      SessionState ss;
      ss.session =
          std::make_unique<analysis::AnalyzerSession>(std::move(cfg));
      it = sessions_.emplace(key, std::move(ss)).first;
    } catch (const std::exception&) {
      *error =
          "handshake rejected: unusable spec, variable set or thread count";
      return false;
    }
    if constexpr (telemetry::kEnabled) {
      FleetMetrics::get().sessionsActive.set(
          static_cast<std::int64_t>(sessions_.size()));
      std::size_t tenants = 0;
      std::string last;
      bool first = true;
      for (const auto& [k, s] : sessions_) {
        if (first || k.tenant != last) ++tenants;
        last = k.tenant;
        first = false;
      }
      FleetMetrics::get().tenantsActive.set(
          static_cast<std::int64_t>(tenants));
    }
  } else {
    // Additional channels of the same session must agree on the world —
    // against the specs the FIRST handshake carried, not the merged set.
    const analysis::AnalyzerSession::Config& cfg =
        it->second.session->config();
    if (h.threads != cfg.threads || h.specs != cfg.handshakeSpecs) {
      *error = "handshake conflicts with the active analysis";
      return false;
    }
  }
  conn.sawHandshake = true;
  conn.streamId = h.streamId;
  conn.version = h.version;
  conn.tenant = h.tenant;
  conn.traceId = h.traceId;
  ++tenantLive_[h.tenant];
  telemetry::FlightRecorder::global().record(
      telemetry::FlightEvent::kHandshake, h.streamId, h.version, h.threads);
  auto& stream = it->second.streams[h.streamId];
  if (stream.snap.connections == 0) {
    stream.snap.streamId = h.streamId;
    stream.snap.tenant = h.tenant;
    stream.snap.traceId = h.traceId;
    if constexpr (telemetry::kEnabled) {
      PipelineMetrics::get().streamsActive.add(1);
    }
  }
  ++stream.snap.connections;
  stream.snap.version = h.version;
  return true;
}

bool ObserverDaemon::handleEvents(Conn& conn, const Frame& frame,
                                  const char** error) {
  if (!conn.sawHandshake) {
    *error = "events before handshake";
    return false;
  }
  if (conn.sawEnd) {
    *error = "events after end-of-trace";
    return false;
  }
  // Both timestamp-prefixed frame kinds (v3 dense, v4 sparse) feed the
  // pipeline-lag machinery; decoded messages are identical full clocks
  // either way, so everything downstream (dedup, lattice) is coding-blind.
  const bool timestamped = frame.type != FrameType::kEvents;
  std::uint64_t sendNs = 0;
  std::vector<trace::Message> messages;
  if (frame.type == FrameType::kEventsSparse) {
    if (!decodeEventsSparsePayload(frame.payload, sendNs, messages, error)) {
      return false;
    }
  } else if (frame.type == FrameType::kEventsTs) {
    if (!decodeEventsTsPayload(frame.payload, sendNs, messages, error)) {
      return false;
    }
  } else {
    if (!decodeEventsPayload(frame.payload, messages, error)) return false;
  }
  // Region events are a v6 capability: a peer that handshook below
  // kRegionProtocolVersion never legitimately produces them, so treat
  // one as stream corruption rather than silently analyzing it.
  if (conn.version < kRegionProtocolVersion) {
    for (const trace::Message& m : messages) {
      if (trace::isRegionMarker(m.event.kind)) {
        *error = "region event from a pre-v6 peer";
        return false;
      }
    }
  }
  const std::uint64_t recvNs = telemetry::rawMonotonicNs();

  // The daemon-side frame span carries the stream id, so a merged
  // emitter+daemon trace joins in one Perfetto view.
  telemetry::TraceSpan span("daemon.frame", "net");
  span.arg("stream_id", static_cast<std::int64_t>(conn.streamId));
  span.arg("messages", static_cast<std::int64_t>(messages.size()));

  std::lock_guard<std::mutex> lk(mu_);
  SessionState* ss = sessionForLocked(conn);
  if (ss == nullptr || ss->session == nullptr) {
    *error = "events for an unknown session";
    return false;
  }
  analysis::AnalyzerSession& session = *ss->session;
  auto& stream = ss->streams[conn.streamId];
  ++stream.snap.frames;
  stream.snap.lastEventNs = recvNs;
  if (timestamped) {
    const std::uint64_t lag = lagNs(recvNs, sendNs);
    stream.snap.receiveLag.observe(lag);
    if constexpr (telemetry::kEnabled) {
      PipelineMetrics::get().receiveLagNs.record(lag);
    }
  }
  // Per-thread max own-clock index of this frame: the frame counts as
  // analyzed once the session's consumption watermark covers it.
  std::vector<LocalSeq> frameMaxK(session.config().threads, 0);
  for (const trace::Message& m : messages) {
    const analysis::AnalyzerSession::Ingest res = session.ingest(m, error);
    if (res == analysis::AnalyzerSession::Ingest::kError) return false;
    // ingest validated thread and own-clock on both non-error outcomes.
    const ThreadId j = m.event.thread;
    frameMaxK[j] = std::max(frameMaxK[j], m.clock[j]);
    if (res == analysis::AnalyzerSession::Ingest::kDuplicate) {
      ++duplicates_;
      ++stream.snap.duplicates;
      if constexpr (telemetry::kEnabled) {
        DaemonMetrics::get().duplicatesIgnored.add(1);
      }
      continue;
    }
    ++ingested_;
    ++stream.snap.messages;
    if constexpr (telemetry::kEnabled) {
      DaemonMetrics::get().messagesIngested.add(1);
    }
  }
  if (timestamped) {
    stream.inFlight.push_back(PendingFrame{std::move(frameMaxK), sendNs});
  }
  settleAnalyzedLocked();
  noteViolationsLocked(*ss);
  maybeCheckpointLocked();
  return true;
}

void ObserverDaemon::noteStreamEnd(Conn& conn) {
  std::lock_guard<std::mutex> lk(mu_);
  SessionState* ss = sessionForLocked(conn);
  if (ss == nullptr || ss->session == nullptr) return;
  auto& stream = ss->streams[conn.streamId];
  if (!stream.snap.ended) {
    stream.snap.ended = true;
    if constexpr (telemetry::kEnabled) {
      PipelineMetrics::get().streamsActive.add(-1);
    }
  }
  ss->session->noteStreamEnd();
  settleAnalyzedLocked();
  noteViolationsLocked(*ss);
  if (ss->session->finished() && !opts_.checkpointPath.empty()) {
    // A finished session's last epoch: the snapshot then holds the final
    // verdict, so a restart after completion still serves the report.
    checkpointLocked();
  }
  finishedCv_.notify_all();
}

const ObserverDaemon::SessionState* ObserverDaemon::defaultSessionLocked()
    const {
  if (sessions_.empty()) return nullptr;
  const auto it = sessions_.find(SessionKey{});
  return it != sessions_.end() ? &it->second : &sessions_.begin()->second;
}

ObserverDaemon::SessionState* ObserverDaemon::sessionForLocked(
    const Conn& conn) {
  const auto it = sessions_.find(SessionKey{conn.tenant, conn.traceId});
  return it != sessions_.end() ? &it->second : nullptr;
}

bool ObserverDaemon::allFinishedLocked() const {
  if (sessions_.empty()) return false;
  for (const auto& [key, ss] : sessions_) {
    if (ss.session == nullptr || !ss.session->finished()) return false;
  }
  return true;
}

void ObserverDaemon::settleAnalyzedLocked() {
  const std::uint64_t now = telemetry::rawMonotonicNs();
  std::int64_t totalInFlight = 0;
  for (auto& [key, ss] : sessions_) {
    if (ss.session == nullptr) continue;
    const std::vector<LocalSeq>& ck = ss.session->consumedK();
    const bool sessionDone = ss.session->finished();
    for (auto& [id, stream] : ss.streams) {
      while (!stream.inFlight.empty()) {
        const PendingFrame& f = stream.inFlight.front();
        bool analyzed = sessionDone;  // finalization consumed everything
        if (!analyzed) {
          analyzed = true;
          for (std::size_t j = 0; j < f.maxK.size(); ++j) {
            if (j >= ck.size() || ck[j] < f.maxK[j]) {
              analyzed = false;
              break;
            }
          }
        }
        if (!analyzed) break;  // frames settle in arrival order per stream
        const std::uint64_t lag = lagNs(now, f.sendNs);
        stream.snap.analyzeLag.observe(lag);
        if constexpr (telemetry::kEnabled) {
          PipelineMetrics::get().analyzeLagNs.record(lag);
        }
        stream.inFlight.pop_front();
      }
      stream.snap.framesInFlight = stream.inFlight.size();
      totalInFlight += static_cast<std::int64_t>(stream.inFlight.size());
    }
  }
  if constexpr (telemetry::kEnabled) {
    PipelineMetrics::get().framesInFlight.set(totalInFlight);
    const SessionState* def = defaultSessionLocked();
    PipelineMetrics::get().watermarkLevel.set(
        def != nullptr && def->session != nullptr
            ? static_cast<std::int64_t>(def->session->watermarkLevel())
            : 0);
    // Per-tenant budget gauges: how much of the lattice memory budget each
    // tenant's sessions account for (label baked into the series name).
    std::string tenant;
    std::uint64_t bytes = 0;
    bool have = false;
    const auto flush = [&] {
      if (!have) return;
      telemetry::registry()
          .gauge("mpx_observer_budget_accounted_bytes{tenant=\"" + tenant +
                     "\"}",
                 "Analyzer working-set bytes accounted to this tenant")
          .set(static_cast<std::int64_t>(bytes));
    };
    for (const auto& [key, ss] : sessions_) {
      if (ss.session == nullptr) continue;
      if (!have || key.tenant != tenant) {
        flush();
        tenant = key.tenant;
        bytes = 0;
        have = true;
      }
      bytes += ss.session->stats().accountedBytes;
    }
    flush();
  }
}

void ObserverDaemon::noteViolationsLocked(SessionState& ss) {
  if (ss.session == nullptr) return;
  const std::size_t n = ss.session->violations().size();
  if (n > ss.violationsSeen) {
    ss.violationsSeen = n;
    // On-violation flight dump: the post-mortem trail of how the pipeline
    // got here, written while the state is still fresh.
    if (!opts_.flightDumpPath.empty()) {
      telemetry::FlightRecorder::global().record(
          telemetry::FlightEvent::kDump, /*reason=*/2);
      telemetry::FlightRecorder::global().dumpToFile(
          opts_.flightDumpPath.c_str());
    }
  }
}

void ObserverDaemon::maybeCheckpointLocked() {
  if (opts_.checkpointPath.empty() || opts_.checkpointIntervalLevels == 0) {
    return;
  }
  for (const auto& [key, ss] : sessions_) {
    if (ss.session == nullptr) continue;
    if (ss.session->watermarkLevel() >=
        ss.session->lastCheckpointLevel() + opts_.checkpointIntervalLevels) {
      checkpointLocked();
      return;  // one file covers every session
    }
  }
}

bool ObserverDaemon::checkpointLocked() {
  if (opts_.checkpointPath.empty() || sessions_.empty()) return false;
  std::vector<SnapshotEntry> entries;
  entries.reserve(sessions_.size());
  for (auto& [key, ss] : sessions_) {
    if (ss.session == nullptr) continue;
    observer::ckpt::Writer w;
    ss.session->checkpoint(w);
    entries.push_back(SnapshotEntry{key.tenant, key.traceId, w.take()});
  }
  std::size_t bytes = 0;
  for (const SnapshotEntry& e : entries) bytes += e.blob.size();
  const char* err = nullptr;
  if (!writeSnapshotFile(opts_.checkpointPath, entries, &err)) {
    logError(err != nullptr ? err : "snapshot write failed");
    if constexpr (telemetry::kEnabled) {
      FleetMetrics::get().checkpointFailures.add(1);
    }
    return false;
  }
  ++checkpointsWritten_;
  if constexpr (telemetry::kEnabled) {
    FleetMetrics::get().checkpoints.add(1);
    FleetMetrics::get().checkpointBytes.add(bytes);
  }
  return true;
}

bool ObserverDaemon::checkpointNow() {
  std::lock_guard<std::mutex> lk(mu_);
  return checkpointLocked();
}

std::uint64_t ObserverDaemon::checkpointsWritten() const {
  std::lock_guard<std::mutex> lk(mu_);
  return checkpointsWritten_;
}

std::uint64_t ObserverDaemon::sessionsRestored() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sessionsRestored_;
}

std::size_t ObserverDaemon::sessionCount() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sessions_.size();
}

std::vector<SessionSnapshot> ObserverDaemon::sessionSnapshots() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SessionSnapshot> out;
  out.reserve(sessions_.size());
  for (const auto& [key, ss] : sessions_) {
    if (ss.session == nullptr) continue;
    SessionSnapshot s;
    s.tenant = key.tenant;
    s.traceId = key.traceId;
    s.finished = ss.session->finished();
    s.epoch = ss.session->epoch();
    s.restores = ss.session->restoreCount();
    s.watermarkLevel = ss.session->watermarkLevel();
    s.pendingMessages = ss.session->pendingMessages();
    s.violations = ss.session->violations().size();
    s.streams = ss.streams.size();
    s.streamsEnded = ss.session->streamsEnded();
    s.accountedBytes = ss.session->stats().accountedBytes;
    s.streamError = ss.session->streamError();
    out.push_back(std::move(s));
  }
  return out;
}

void ObserverDaemon::serveHttp(Socket& sock, const std::string& requestLine) {
  // "GET /path HTTP/1.x" — the path is the second whitespace token.
  std::string path = "/";
  std::string query;
  {
    const std::size_t sp1 = requestLine.find(' ');
    if (sp1 != std::string::npos) {
      const std::size_t start = requestLine.find_first_not_of(' ', sp1);
      if (start != std::string::npos) {
        std::size_t end = requestLine.find(' ', start);
        if (end == std::string::npos) end = requestLine.size();
        path = requestLine.substr(start, end - start);
        while (!path.empty() &&
               (path.back() == '\r' || path.back() == '\n')) {
          path.pop_back();
        }
      }
    }
    const std::size_t q = path.find('?');
    if (q != std::string::npos) {
      query = path.substr(q + 1);
      path.resize(q);
    }
  }

  const char* status = "200 OK";
  const char* contentType = "text/plain";
  std::string body;
  if (path == "/" || path.empty()) {
    body = renderStatus();  // the legacy status page
  } else if (path == "/healthz") {
    body = "ok\n";
  } else if (path == "/metrics") {
    body = telemetry::toPrometheusText(telemetry::registry().snapshot());
  } else if (path == "/streams") {
    contentType = "application/json";
    body = renderStreamsJson();
  } else if (path == "/report") {
    // ?tenant=NAME&trace=ID selects a session; no params = the default.
    const std::string tenant = queryParam(query, "tenant");
    const std::string traceStr = queryParam(query, "trace");
    std::uint64_t traceId = 0;
    bool traceOk = true;
    if (!traceStr.empty()) {
      try {
        traceId = std::stoull(traceStr);
      } catch (const std::exception&) {
        traceOk = false;
      }
    }
    std::lock_guard<std::mutex> lk(mu_);
    const SessionState* ss = nullptr;
    if (!traceOk) {
      ss = nullptr;
    } else if (tenant.empty() && traceStr.empty()) {
      ss = defaultSessionLocked();
    } else {
      const auto it = sessions_.find(SessionKey{tenant, traceId});
      ss = it != sessions_.end() ? &it->second : nullptr;
    }
    if (ss != nullptr && ss->session != nullptr) {
      body = ss->session->renderReport();
      const std::vector<observer::AnalysisReport> reports =
          ss->session->analysisReports();
      if (!reports.empty()) {
        body += '\n';
        body += analysis::renderAnalysisReports(reports);
      }
    } else if (!tenant.empty() || !traceStr.empty()) {
      status = "404 Not Found";
      body = "no such session\n";
    } else {
      body = renderViolationReport(observer::StateSpace{}, {},
                                   observer::LatticeStats{}, false);
    }
  } else if (path == "/flightrecorder") {
    contentType = "application/json";
    telemetry::FlightRecorder::global().record(
        telemetry::FlightEvent::kDump, /*reason=*/3);
    body = telemetry::FlightRecorder::global().toJson();
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }

  std::ostringstream os;
  os << "HTTP/1.0 " << status << "\r\nContent-Type: " << contentType
     << "\r\nContent-Length: " << body.size()
     << "\r\nConnection: close\r\n\r\n"
     << body;
  const std::string resp = os.str();
  sock.sendAll(resp.data(), resp.size());
  sock.shutdownWrite();
}

bool ObserverDaemon::waitFinished(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  finishedCv_.wait_for(lk, timeout, [this] {
    if (allFinishedLocked()) return true;
    for (const auto& [key, ss] : sessions_) {
      if (ss.session != nullptr && !ss.session->streamError().empty()) {
        return true;
      }
    }
    return false;
  });
  return allFinishedLocked();
}

void ObserverDaemon::stop() {
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(connsMu_);
    if (stopping_) return;
    stopping_ = true;
    conns = conns_;
  }
  listener_.stop();
  if (acceptThread_.joinable()) acceptThread_.join();
  for (auto& c : conns) c->sock.shutdownBoth();
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
  listener_.close();
  {
    std::lock_guard<std::mutex> lk(mu_);
    finishedCv_.notify_all();
  }
}

bool ObserverDaemon::finished() const {
  std::lock_guard<std::mutex> lk(mu_);
  return allFinishedLocked();
}

bool ObserverDaemon::handshaken() const {
  std::lock_guard<std::mutex> lk(mu_);
  return !sessions_.empty();
}

std::vector<observer::Violation> ObserverDaemon::violations() const {
  std::lock_guard<std::mutex> lk(mu_);
  const SessionState* ss = defaultSessionLocked();
  return ss != nullptr && ss->session != nullptr
             ? ss->session->violations()
             : std::vector<observer::Violation>{};
}

observer::LatticeStats ObserverDaemon::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  const SessionState* ss = defaultSessionLocked();
  return ss != nullptr && ss->session != nullptr ? ss->session->stats()
                                                 : observer::LatticeStats{};
}

std::vector<std::string> ObserverDaemon::specs() const {
  std::lock_guard<std::mutex> lk(mu_);
  const SessionState* ss = defaultSessionLocked();
  return ss != nullptr && ss->session != nullptr
             ? ss->session->config().specs
             : std::vector<std::string>{};
}

std::vector<observer::AnalysisReport> ObserverDaemon::analysisReports() const {
  std::lock_guard<std::mutex> lk(mu_);
  const SessionState* ss = defaultSessionLocked();
  return ss != nullptr && ss->session != nullptr
             ? ss->session->analysisReports()
             : std::vector<observer::AnalysisReport>{};
}

std::uint64_t ObserverDaemon::connectionsAccepted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return accepted_;
}

std::uint64_t ObserverDaemon::connectionsAborted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return aborted_;
}

std::uint64_t ObserverDaemon::connectionsRejected() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rejected_;
}

std::uint64_t ObserverDaemon::connectionsShed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shed_;
}

std::uint64_t ObserverDaemon::messagesIngested() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ingested_;
}

std::uint64_t ObserverDaemon::duplicatesIgnored() const {
  std::lock_guard<std::mutex> lk(mu_);
  return duplicates_;
}

std::uint64_t ObserverDaemon::watermarkLevel() const {
  std::lock_guard<std::mutex> lk(mu_);
  const SessionState* ss = defaultSessionLocked();
  return ss != nullptr && ss->session != nullptr
             ? ss->session->watermarkLevel()
             : 0;
}

std::vector<StreamSnapshot> ObserverDaemon::streamSnapshots() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<StreamSnapshot> out;
  for (const auto& [key, ss] : sessions_) {
    for (const auto& [id, s] : ss.streams) out.push_back(s.snap);
  }
  return out;
}

std::string ObserverDaemon::renderStreamsJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\n  ";
  out += "\"handshaken\": ";
  out += !sessions_.empty() ? "true" : "false";
  out += ", \"finished\": ";
  out += allFinishedLocked() ? "true" : "false";
  out += ",\n  ";
  const SessionState* def = defaultSessionLocked();
  const analysis::AnalyzerSession* ds =
      def != nullptr ? def->session.get() : nullptr;
  const observer::LatticeStats stats =
      ds != nullptr ? ds->stats() : observer::LatticeStats{};
  appendJsonU64(out, "levels", stats.levels);
  appendJsonU64(out, "watermark_level",
                ds != nullptr ? ds->watermarkLevel() : 0);
  appendJsonU64(out, "pending_messages",
                ds != nullptr ? ds->pendingMessages() : 0);
  appendJsonU64(out, "buffered_messages",
                ds != nullptr ? ds->bufferedMessages() : 0);
  out += "\"degradation\": \"";
  out += observer::toString(stats.degradation);
  out += "\", \"bound_reason\": \"";
  out += observer::toString(stats.boundReason);
  out += "\",\n  ";
  std::uint64_t streamsEnded = 0;
  for (const auto& [key, ss] : sessions_) {
    if (ss.session != nullptr) streamsEnded += ss.session->streamsEnded();
  }
  appendJsonU64(out, "streams_ended", streamsEnded);
  appendJsonU64(out, "expected_streams", opts_.expectedStreams);
  appendJsonU64(out, "connections_accepted", accepted_);
  appendJsonU64(out, "messages_ingested", ingested_);
  appendJsonU64(out, "duplicates_ignored", duplicates_);
  appendJsonU64(out, "checkpoints_written", checkpointsWritten_);
  appendJsonU64(out, "sessions_restored", sessionsRestored_);
  std::uint64_t violationsTotal = 0;
  for (const auto& [key, ss] : sessions_) {
    if (ss.session != nullptr) violationsTotal += ss.session->violations().size();
  }
  appendJsonU64(out, "violations_total", violationsTotal);
  appendJsonU64(out, "sessions_active", sessions_.size(),
                /*comma=*/false);
  out += ",\n  \"sessions\": [";
  bool firstSession = true;
  for (const auto& [key, ss] : sessions_) {
    if (ss.session == nullptr) continue;
    out += firstSession ? "\n" : ",\n";
    firstSession = false;
    out += "    {";
    appendJsonStr(out, "tenant", key.tenant);
    appendJsonU64(out, "trace_id", key.traceId);
    out += "\"finished\": ";
    out += ss.session->finished() ? "true" : "false";
    out += ", ";
    appendJsonU64(out, "epoch", ss.session->epoch());
    appendJsonU64(out, "restores", ss.session->restoreCount());
    appendJsonU64(out, "watermark_level", ss.session->watermarkLevel());
    appendJsonU64(out, "pending_messages", ss.session->pendingMessages());
    appendJsonU64(out, "buffered_messages", ss.session->bufferedMessages());
    appendJsonU64(out, "violations", ss.session->violations().size());
    appendJsonU64(out, "streams_ended", ss.session->streamsEnded());
    appendJsonU64(out, "accounted_bytes", ss.session->stats().accountedBytes);
    appendJsonU64(out, "streams", ss.streams.size(), /*comma=*/false);
    out += '}';
  }
  out += firstSession ? "]" : "\n  ]";
  out += ",\n  \"streams\": [";
  bool first = true;
  for (const auto& [key, ss] : sessions_) {
    for (const auto& [id, s] : ss.streams) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {";
      appendJsonU64(out, "stream_id", s.snap.streamId);
      appendJsonStr(out, "tenant", s.snap.tenant);
      appendJsonU64(out, "trace_id", s.snap.traceId);
      appendJsonU64(out, "version", s.snap.version);
      appendJsonU64(out, "connections", s.snap.connections);
      appendJsonU64(out, "frames", s.snap.frames);
      appendJsonU64(out, "messages", s.snap.messages);
      appendJsonU64(out, "duplicates", s.snap.duplicates);
      appendJsonU64(out, "frames_in_flight", s.inFlight.size());
      out += "\"ended\": ";
      out += s.snap.ended ? "true" : "false";
      out += ", ";
      appendLagJson(out, "receive_lag_ns", s.snap.receiveLag);
      out += ", ";
      appendLagJson(out, "analyze_lag_ns", s.snap.analyzeLag);
      out += ", ";
      appendJsonU64(out, "last_event_ns", s.snap.lastEventNs,
                    /*comma=*/false);
      out += '}';
    }
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string ObserverDaemon::streamError() const {
  std::lock_guard<std::mutex> lk(mu_);
  const SessionState* ss = defaultSessionLocked();
  return ss != nullptr && ss->session != nullptr ? ss->session->streamError()
                                                 : std::string{};
}

std::string ObserverDaemon::renderReport() const {
  std::lock_guard<std::mutex> lk(mu_);
  const SessionState* ss = defaultSessionLocked();
  if (ss != nullptr && ss->session != nullptr) {
    return ss->session->renderReport();
  }
  return renderViolationReport(observer::StateSpace{}, {},
                               observer::LatticeStats{}, false);
}

std::string ObserverDaemon::renderStatus() const {
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const SessionState* def = defaultSessionLocked();
    const analysis::AnalyzerSession* ds =
        def != nullptr ? def->session.get() : nullptr;
    std::uint64_t streamsEnded = 0;
    for (const auto& [key, ss] : sessions_) {
      if (ss.session != nullptr) streamsEnded += ss.session->streamsEnded();
    }
    os << "mpx_observerd status\n";
    os << "handshaken: " << (!sessions_.empty() ? "yes" : "no")
       << ", streams ended: " << streamsEnded << '/' << opts_.expectedStreams
       << '\n';
    os << "sessions: " << sessions_.size()
       << " restored=" << sessionsRestored_
       << " checkpoints=" << checkpointsWritten_ << '\n';
    os << "connections: accepted=" << accepted_ << " aborted=" << aborted_
       << " rejected=" << rejected_ << " shed=" << shed_ << '\n';
    os << "messages: ingested=" << ingested_
       << " duplicates_ignored=" << duplicates_ << '\n';
    if (ds != nullptr && !ds->streamError().empty()) {
      os << "stream error: " << ds->streamError() << '\n';
    }
    os << '\n';
    if (ds != nullptr) {
      os << ds->renderReport();
      const std::vector<observer::AnalysisReport> reports =
          ds->analysisReports();
      if (!reports.empty()) {
        os << '\n' << analysis::renderAnalysisReports(reports);
      }
    } else {
      os << renderViolationReport(observer::StateSpace{}, {},
                                  observer::LatticeStats{}, false);
    }
  }
  os << '\n' << telemetry::toPrometheusText(telemetry::registry().snapshot());
  return os.str();
}

void ObserverDaemon::logError(const char* what) const {
  if (opts_.logErrors) {
    std::fprintf(stderr, "mpx_observerd: dropping connection: %s\n", what);
  }
}

}  // namespace mpx::net
