// AnalyzerSession: one tenant's analysis of one trace, as a unit the
// multi-tenant observer daemon can own many of (ISSUE 9 tentpole).
//
// The pre-session daemon hard-coded the paper's Fig. 4 shape — N
// connections feeding ONE OnlineAnalyzer.  A session packages everything
// that analyzer needed from the daemon: the handshake-derived
// configuration (threads, specs, tracked variables, VarTable), the
// StateSpace, one SpecAnalysis plugin per property on one AnalysisBus, the
// OnlineAnalyzer with its private frontier, MonitorSetArena and budget,
// the at-least-once dedup bitmaps, and the stream-completion bookkeeping.
// The daemon routes each handshake to its session by (tenant, trace id)
// and otherwise stays a transport.
//
// Sessions are checkpointable: checkpoint() emits one self-contained blob
// (config included, so restore needs no side channel), and restore()
// rebuilds the whole stack from it in deterministic order, so a restored
// session's final report is byte-identical to an uninterrupted run's.
//
// Thread safety: none.  The daemon serializes access under its own mutex,
// exactly as it did for the single analyzer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "logic/spec_analysis.hpp"
#include "observer/analysis.hpp"
#include "observer/checkpoint.hpp"
#include "observer/online.hpp"
#include "trace/event.hpp"
#include "trace/var_table.hpp"

namespace mpx::analysis {

class AnalyzerSession {
 public:
  /// Everything a handshake (plus daemon options) determines.  The session
  /// serializes this with its state, so a snapshot restores without the
  /// original handshake.
  struct Config {
    std::uint32_t threads = 0;
    /// The active property set: handshake specs + daemon-side extras,
    /// first-seen order, deduplicated (one SpecAnalysis plugin each).
    std::vector<std::string> specs;
    /// The specs exactly as the FIRST handshake carried them — later
    /// handshakes of the same session must match these, not the merged set.
    std::vector<std::string> handshakeSpecs;
    std::vector<std::string> tracked;
    trace::VarTable vars;
    /// kEndOfTrace frames to collect before finalizing.
    std::size_t expectedStreams = 1;
    observer::LatticeOptions lattice;
    /// Daemon-side analysis plugins riding the session's bus alongside the
    /// spec plugins (ISSUE 10): "atomicity" (conflict-serializability of
    /// annotated regions) and "mhp" (never-concurrent pair prefilter).
    /// Unknown names throw at construction (handshake rejection).
    std::vector<std::string> analyses;
  };

  enum class Ingest : std::uint8_t {
    kIngested,   ///< fed into the analyzer
    kDuplicate,  ///< dedup hit (at-least-once redelivery); dropped
    kError,      ///< rejected — see the error string
  };

  /// Builds the full stack for `cfg`.  Throws std::runtime_error when the
  /// specs or tracked variables are unusable, or when `cfg.threads`
  /// exceeds trace::BinaryCodec::kMaxClockComponents (no message of a
  /// wider thread could decode, and the session's per-thread tables would
  /// be sized by a hostile count).  The daemon turns this into a handshake
  /// rejection.
  explicit AnalyzerSession(Config cfg);

  /// Validates and feeds one message.  On kError a static reason is left
  /// in `*error`.  Never throws.
  Ingest ingest(const trace::Message& m, const char** error);

  /// Counts one kEndOfTrace.  When the expected number has arrived the
  /// analyzer is finalized; an impossible finalization (gaps after an
  /// aborted client) is recorded in streamError() instead of thrown.
  void noteStreamEnd();

  // --- accessors (mirroring the daemon's single-analyzer surface) -----
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] const observer::StateSpace& space() const noexcept {
    return space_;
  }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] const std::string& streamError() const noexcept {
    return streamError_;
  }
  [[nodiscard]] std::size_t streamsEnded() const noexcept {
    return streamsEnded_;
  }
  [[nodiscard]] const std::vector<observer::Violation>& violations() const {
    return analyzer_->violations();
  }
  [[nodiscard]] const observer::LatticeStats& stats() const {
    return analyzer_->stats();
  }
  [[nodiscard]] std::uint64_t watermarkLevel() const {
    return analyzer_->levelsCompleted() - 1;
  }
  [[nodiscard]] std::size_t pendingMessages() const {
    return analyzer_->pendingMessages();
  }
  /// Messages the analyzer holds in memory (pending + still-reachable).
  [[nodiscard]] std::size_t bufferedMessages() const {
    return analyzer_->bufferedMessages();
  }
  /// Per-thread consumption watermark (the daemon's frame-settling input).
  [[nodiscard]] const std::vector<LocalSeq>& consumedK() const {
    return analyzer_->consumedK();
  }
  [[nodiscard]] std::vector<observer::AnalysisReport> analysisReports() const;
  /// The violation report in paper notation (the shared render path).
  [[nodiscard]] std::string renderReport() const;

  // --- checkpoint epochs ----------------------------------------------
  /// Checkpoints taken of this session (monotonic; restored from the blob).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  /// Times this session was rebuilt from a snapshot.
  [[nodiscard]] std::uint64_t restoreCount() const noexcept {
    return restoreCount_;
  }
  /// Watermark level at the last checkpoint — the daemon's epoch trigger
  /// compares against it.
  [[nodiscard]] std::uint64_t lastCheckpointLevel() const noexcept {
    return lastCheckpointLevel_;
  }

  /// Serializes the whole session (config + dedup + analyzer + one blob
  /// per plugin) and advances the epoch.
  void checkpoint(observer::ckpt::Writer& w);

  /// Rebuilds a session from a checkpoint() blob.  Returns null on any
  /// version/decode mismatch (snapshot files are untrusted input).  The
  /// returned session's restoreCount() is one higher than the
  /// checkpointed session's.
  ///
  /// `jobs` overrides the lattice parallelism (a runtime choice of the
  /// restoring daemon, not part of the analysis identity); 0 keeps the
  /// checkpointed value.
  [[nodiscard]] static std::unique_ptr<AnalyzerSession> restore(
      observer::ckpt::Reader& r, std::size_t jobs = 0);

 private:
  Config cfg_;
  observer::StateSpace space_;
  std::vector<std::unique_ptr<logic::SpecAnalysis>> plugins_;
  /// Message-fed analysis plugins (cfg_.analyses order), on the same bus.
  std::vector<std::unique_ptr<observer::Analysis>> extras_;
  std::unique_ptr<observer::AnalysisBus> bus_;
  std::unique_ptr<observer::OnlineAnalyzer> analyzer_;
  /// At-least-once dedup: seen_[thread][k] == the own-clock index k was
  /// already ingested.
  std::vector<std::vector<bool>> seen_;
  std::size_t streamsEnded_ = 0;
  bool finished_ = false;
  std::string streamError_;
  std::uint64_t epoch_ = 0;
  std::uint64_t restoreCount_ = 0;
  std::uint64_t lastCheckpointLevel_ = 0;
};

}  // namespace mpx::analysis
