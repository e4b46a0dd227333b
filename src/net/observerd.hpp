// ObserverDaemon: the observer half of the Fig. 4 deployment, as a library
// (the mpx_observerd binary is a thin main() around it, and the loopback
// e2e tests drive it in-process).
//
// The daemon accepts TCP connections on localhost.  Each connection is
// either
//   * an MPX frame stream — handshake, then any number of kEvents frames,
//     then kEndOfTrace.  The handshake's (tenant, trace id) pair — wire v5;
//     v1–v4 peers land on the default ("", 0) — routes the stream to an
//     AnalyzerSession: one OnlineAnalyzer with its own arenas, budget and
//     plugins per traced execution, so one daemon serves many tenants with
//     no cross-tenant interference.  Within a session, Theorem 3 makes any
//     interleaving of frames across connections safe, so a client may
//     spread its messages over several channels/connections to cut
//     emission latency, exactly as the paper suggests.
//   * a plain-text status probe ("GET ..."): the daemon replies with an
//     HTTP response carrying the violation report and the telemetry
//     snapshot, then closes.  Anything that is neither is logged, counted
//     and disconnected — a hostile or corrupt client never takes the
//     daemon down.
//
// Epoch checkpointing: with a checkpoint path configured the daemon
// serializes EVERY live session into one snapshot file (net/snapshot.hpp)
// whenever a session's consumption watermark has advanced by the
// configured interval since its last checkpoint — and on demand via
// checkpointNow(), which the binary wires to SIGTERM.  On start() the
// daemon restores all sessions from an existing snapshot and resumes
// mid-trace: reconnecting emitters resend their handshake and their
// recent-frame window, the per-session dedup drops everything at or below
// the checkpointed watermark, and the resumed analysis is byte-identical
// to an uninterrupted run.
//
// Lifecycle rules the tests pin down:
//   * A session is finalized (endOfTrace) once `expectedStreams`
//     kEndOfTrace frames of that session have arrived.
//   * A connection that dies without kEndOfTrace (client SIGKILL, network
//     reset) counts as aborted; the analysis stays consistent but may
//     never finish — the report says so instead of lying.
//   * Zero-message streams (handshake + kEndOfTrace) are legal.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/session.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "observer/analysis.hpp"
#include "observer/online.hpp"

namespace mpx::net {

/// The daemon's violation report in paper notation.  Exposed so the
/// loopback e2e tests can render an in-process OnlineAnalyzer's result
/// through the exact same code and assert byte equality.
[[nodiscard]] std::string renderViolationReport(
    const observer::StateSpace& space,
    const std::vector<observer::Violation>& violations,
    const observer::LatticeStats& stats, bool finished);

/// Aggregated lag observations in nanoseconds (kept as plain counters so
/// /streams works identically in telemetry-OFF builds).
struct LagStats {
  std::uint64_t count = 0;
  std::uint64_t sumNs = 0;
  std::uint64_t maxNs = 0;
  std::uint64_t lastNs = 0;

  void observe(std::uint64_t ns) noexcept {
    ++count;
    sumNs += ns;
    if (ns > maxNs) maxNs = ns;
    lastNs = ns;
  }
  [[nodiscard]] std::uint64_t meanNs() const noexcept {
    return count == 0 ? 0 : sumNs / count;
  }
};

/// Point-in-time view of one logical stream, as served by /streams.  A
/// stream is every connection sharing one handshake stream id (v3) within
/// one session; v1/v2 peers, which carry no id, aggregate under stream
/// id 0 of the default session.
struct StreamSnapshot {
  std::uint64_t streamId = 0;
  /// Session routing key (v5 handshake; ""/0 for earlier peers).
  std::string tenant;
  std::uint64_t traceId = 0;
  std::uint16_t version = 0;
  std::uint64_t connections = 0;
  std::uint64_t frames = 0;
  std::uint64_t messages = 0;
  std::uint64_t duplicates = 0;
  /// Timestamped frames received but not yet fully folded into the lattice.
  std::uint64_t framesInFlight = 0;
  bool ended = false;
  /// Emit-to-receive lag (socket + queueing), from kEventsTs timestamps.
  LagStats receiveLag;
  /// Emit-to-analyze lag: send timestamp to the moment every message of
  /// the frame is at or below the analyzer's consumption watermark.
  LagStats analyzeLag;
  /// rawMonotonicNs() when the stream's last events frame arrived.
  std::uint64_t lastEventNs = 0;
};

/// Point-in-time view of one analyzer session, as served by /streams and
/// rendered by mpx_top's tenant grouping.
struct SessionSnapshot {
  std::string tenant;
  std::uint64_t traceId = 0;
  bool finished = false;
  std::uint64_t epoch = 0;          ///< checkpoints taken of this session
  std::uint64_t restores = 0;       ///< times rebuilt from a snapshot
  std::uint64_t watermarkLevel = 0;
  std::uint64_t pendingMessages = 0;
  std::uint64_t violations = 0;
  std::uint64_t streams = 0;
  std::uint64_t streamsEnded = 0;
  std::uint64_t accountedBytes = 0;  ///< analyzer working set (budget)
  std::string streamError;
};

struct DaemonOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  /// kEndOfTrace frames to collect before finalizing a session.  A client
  /// using N channels (connections) sends one per connection.
  std::size_t expectedStreams = 1;
  std::size_t maxFramePayload = kDefaultMaxFramePayload;
  observer::LatticeOptions lattice;
  /// Properties checked IN ADDITION to the ones a handshake carries
  /// (mpx_observerd --property).  All of them become SpecAnalysis plugins
  /// on one shared bus — a single lattice pass checks every property.
  std::vector<std::string> extraSpecs;
  /// Daemon-side analysis plugins added to EVERY session
  /// (mpx_observerd --analysis): "atomicity" and/or "mhp".  Like
  /// extraSpecs they ride the session's bus; unlike specs they are
  /// message-fed and need no lattice state.
  std::vector<std::string> analyses;
  /// Admission control: maximum live client connections (0 = unlimited).
  /// A connection beyond the cap is SHED — told so and disconnected —
  /// instead of letting unbounded per-connection state kill the daemon.
  std::size_t maxConnections = 0;
  /// Per-tenant admission control atop maxConnections: maximum live
  /// handshaken connections per tenant (0 = unlimited).  A tenant over its
  /// cap is rejected at handshake time; other tenants are unaffected.
  std::size_t maxConnsPerTenant = 0;
  /// Epoch checkpointing: when non-empty, snapshots of all live sessions
  /// are written here (atomically, see net/snapshot.hpp) and restored from
  /// here on start().
  std::string checkpointPath;
  /// Watermark levels a session must advance before the next automatic
  /// checkpoint (0 = only checkpointNow(), e.g. on SIGTERM).
  std::uint64_t checkpointIntervalLevels = 0;
  /// Log connection errors to stderr (tests silence this).
  bool logErrors = true;
  /// When set, the flight recorder ring is dumped to this path on the
  /// first violation (the binary additionally dumps at exit/SIGTERM and
  /// installs the crash handlers).
  std::string flightDumpPath;
};

class ObserverDaemon {
 public:
  explicit ObserverDaemon(DaemonOptions opts);
  ~ObserverDaemon();

  ObserverDaemon(const ObserverDaemon&) = delete;
  ObserverDaemon& operator=(const ObserverDaemon&) = delete;

  /// Binds, listens, restores sessions from the checkpoint file (when
  /// configured and present), and starts the accept thread.  Returns false
  /// if the port cannot be bound.
  bool start();

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Blocks until every session finished (and at least one session exists)
  /// or the timeout expires.  Returns finished().
  bool waitFinished(std::chrono::milliseconds timeout);

  /// Stops accepting, closes every live connection, joins all threads.
  /// Idempotent.  The analysis state remains queryable afterwards.
  void stop();

  // --- analysis results (thread-safe snapshots) ----------------------
  // The session-less accessors read the DEFAULT session — the ("", 0) key
  // every pre-v5 peer lands on — or, when only named sessions exist, the
  // first one.  The pre-multi-tenant API is thus unchanged for the
  // single-session deployments the e2e tests and mpx_cli drive.
  [[nodiscard]] bool finished() const;
  [[nodiscard]] bool handshaken() const;
  [[nodiscard]] std::vector<observer::Violation> violations() const;
  [[nodiscard]] observer::LatticeStats stats() const;
  /// The property specs the default session checks (handshake specs plus
  /// opts.extraSpecs, first-seen order).  Empty before the handshake or in
  /// structure-only mode.
  [[nodiscard]] std::vector<std::string> specs() const;
  /// Per-plugin reports (one per spec), rendered through the shared
  /// analysis::renderAnalysisReports path.  Empty in structure-only mode.
  [[nodiscard]] std::vector<observer::AnalysisReport> analysisReports() const;

  // --- lifecycle counters --------------------------------------------
  [[nodiscard]] std::uint64_t connectionsAccepted() const;
  [[nodiscard]] std::uint64_t connectionsAborted() const;
  [[nodiscard]] std::uint64_t connectionsRejected() const;
  /// Connections turned away by admission control (connection cap, tenant
  /// cap, or an analyzer's working set already over its memory budget).
  [[nodiscard]] std::uint64_t connectionsShed() const;
  [[nodiscard]] std::uint64_t messagesIngested() const;
  [[nodiscard]] std::uint64_t duplicatesIgnored() const;
  /// Non-empty once the default session hit an unrecoverable analysis
  /// error (e.g. endOfTrace with gaps after an aborted client).
  [[nodiscard]] std::string streamError() const;

  // --- multi-tenant sessions -----------------------------------------
  [[nodiscard]] std::size_t sessionCount() const;
  /// Per-session state, one entry per live (tenant, trace id) key.
  [[nodiscard]] std::vector<SessionSnapshot> sessionSnapshots() const;
  /// Snapshots all sessions to opts.checkpointPath (atomic write).
  /// Returns false when no path is configured, there are no sessions, or
  /// the write failed.  Thread-safe; the binary calls it on SIGTERM.
  bool checkpointNow();
  /// Snapshot files successfully written (automatic + explicit).
  [[nodiscard]] std::uint64_t checkpointsWritten() const;
  /// Sessions rebuilt from the checkpoint file by start().
  [[nodiscard]] std::uint64_t sessionsRestored() const;

  // --- pipeline observability ----------------------------------------
  /// Last fully-analyzed lattice level of the default session
  /// (levelsCompleted - 1); 0 before the handshake.  The /streams
  /// progress watermark.
  [[nodiscard]] std::uint64_t watermarkLevel() const;
  /// Per-stream lag/dedup/watermark stats across all sessions.
  [[nodiscard]] std::vector<StreamSnapshot> streamSnapshots() const;
  /// The /streams endpoint body: global watermark + per-stream JSON plus
  /// the per-session array.
  [[nodiscard]] std::string renderStreamsJson() const;

  /// Human-readable violation report of the default session in paper
  /// notation — byte-identical to renderReport() over an in-process
  /// OnlineAnalyzer fed the same messages (the loopback e2e equality
  /// check).
  [[nodiscard]] std::string renderReport() const;

  /// The HTTP status body: lifecycle summary + report + telemetry text.
  [[nodiscard]] std::string renderStatus() const;

 private:
  struct Conn;

  /// Session routing key: the v5 handshake's (tenant, trace id); all
  /// pre-v5 peers share the default ("", 0).
  struct SessionKey {
    std::string tenant;
    std::uint64_t traceId = 0;
    bool operator<(const SessionKey& o) const noexcept {
      if (tenant != o.tenant) return tenant < o.tenant;
      return traceId < o.traceId;
    }
  };

  /// A timestamped frame whose messages are not yet all folded into the
  /// lattice: per-thread max own-clock indices + the emitter's send clock.
  struct PendingFrame {
    std::vector<LocalSeq> maxK;
    std::uint64_t sendNs = 0;
  };

  /// Accumulating per-stream state behind a StreamSnapshot.
  struct StreamState {
    StreamSnapshot snap;
    std::deque<PendingFrame> inFlight;
  };

  /// One analyzer session plus its transport-side bookkeeping.
  struct SessionState {
    std::unique_ptr<analysis::AnalyzerSession> session;
    /// Per-stream observability, keyed by handshake stream id.
    std::map<std::uint64_t, StreamState> streams;
    /// Violations already dumped/announced (flight-recorder on-violation
    /// trigger fires once per new violation batch).
    std::size_t violationsSeen = 0;
  };

  void acceptLoop();
  /// Joins and releases finished connections (accept-thread only, with
  /// connsMu_ held).
  void reapFinishedLocked();
  void serveConnection(std::shared_ptr<Conn> conn);
  /// Handles one whole frame; returns false to drop the connection (with
  /// `*error` describing why, or nullptr for a clean end).
  bool handleFrame(Conn& conn, const Frame& frame, const char** error);
  bool handleHandshake(Conn& conn, const Frame& frame, const char** error);
  bool handleEvents(Conn& conn, const Frame& frame, const char** error);
  void serveHttp(Socket& sock, const std::string& requestLine);
  void noteStreamEnd(Conn& conn);
  /// The default session for the legacy accessors: ("", 0) if present,
  /// else the first session, else nullptr.  Call with mu_ held.
  [[nodiscard]] const SessionState* defaultSessionLocked() const;
  [[nodiscard]] SessionState* sessionForLocked(const Conn& conn);
  [[nodiscard]] bool allFinishedLocked() const;
  /// Retires in-flight frames a session's analyzer has fully consumed,
  /// recording their emit-to-analyze lag, and refreshes the watermark and
  /// budget gauges.  Call with mu_ held after anything that can advance a
  /// lattice.
  void settleAnalyzedLocked();
  void noteViolationsLocked(SessionState& ss);
  /// Writes the snapshot file when any session crossed its checkpoint
  /// interval (call with mu_ held).
  void maybeCheckpointLocked();
  /// Serializes every session and writes the snapshot file (mu_ held).
  bool checkpointLocked();
  void logError(const char* what) const;

  DaemonOptions opts_;
  Listener listener_;
  std::thread acceptThread_;

  mutable std::mutex mu_;  ///< guards everything below
  std::condition_variable finishedCv_;
  /// All live analyses, keyed by (tenant, trace id).  Created on first
  /// handshake of the key, or restored from the checkpoint by start().
  std::map<SessionKey, SessionState> sessions_;
  /// Live handshaken connections per tenant (admission control).
  std::map<std::string, std::size_t> tenantLive_;
  std::uint64_t accepted_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t ingested_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t checkpointsWritten_ = 0;
  std::uint64_t sessionsRestored_ = 0;

  std::mutex connsMu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  bool stopping_ = false;  ///< guarded by connsMu_
};

}  // namespace mpx::net
