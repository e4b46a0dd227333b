#include "analysis/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/atomicity_analysis.hpp"
#include "analysis/mhp_prefilter.hpp"
#include "analysis/report.hpp"
#include "logic/parser.hpp"
#include "trace/codec.hpp"

namespace mpx::analysis {

namespace {

/// v2 (ISSUE 10): the config carries the daemon-side analysis plugin list
/// and their blobs follow the spec plugins'.
constexpr std::uint8_t kSessionCkptVersion = 2;

/// A hostile own-clock index must not drive the dedup bitmap's allocation
/// (same cap the wire layer enforces).
constexpr LocalSeq kMaxLocalSeq = 1u << 24;

void writeStringList(observer::ckpt::Writer& w,
                     const std::vector<std::string>& list) {
  w.u64(list.size());
  for (const auto& s : list) w.str(s);
}

bool readStringList(observer::ckpt::Reader& r,
                    std::vector<std::string>& list) {
  const std::uint64_t n = r.len(8);
  list.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) list.push_back(r.str());
  return r.ok();
}

}  // namespace

AnalyzerSession::AnalyzerSession(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.threads > trace::BinaryCodec::kMaxClockComponents) {
    throw std::runtime_error("session thread count " +
                             std::to_string(cfg_.threads) + " out of range");
  }
  space_ = observer::StateSpace::byNames(cfg_.vars, cfg_.tracked);
  if (cfg_.expectedStreams == 0) cfg_.expectedStreams = 1;
  // One SpecAnalysis plugin per property on one shared bus — all K
  // properties are checked in a single lattice pass.
  for (const std::string& spec : cfg_.specs) {
    const logic::Formula f = logic::SpecParser(space_).parse(spec);
    plugins_.push_back(std::make_unique<logic::SpecAnalysis>(space_, f, spec));
  }
  // Daemon-side analysis plugins (ISSUE 10) — message-fed, so they work
  // from the wire stream alone.
  for (const std::string& a : cfg_.analyses) {
    if (a == "atomicity") {
      extras_.push_back(std::make_unique<AtomicityAnalysis>(&cfg_.vars));
    } else if (a == "mhp") {
      extras_.push_back(std::make_unique<MhpPrefilter>(&cfg_.vars));
    } else {
      throw std::runtime_error("unknown analysis '" + a + "'");
    }
  }
  if (!plugins_.empty() || !extras_.empty()) {
    std::vector<observer::Analysis*> raw;
    raw.reserve(plugins_.size() + extras_.size());
    for (auto& p : plugins_) raw.push_back(p.get());
    for (auto& p : extras_) raw.push_back(p.get());
    bus_ = std::make_unique<observer::AnalysisBus>(raw);
    analyzer_ = std::make_unique<observer::OnlineAnalyzer>(
        space_, cfg_.threads, *bus_, cfg_.lattice);
  } else {
    analyzer_ = std::make_unique<observer::OnlineAnalyzer>(
        space_, cfg_.threads, static_cast<observer::LatticeMonitor*>(nullptr),
        cfg_.lattice);
  }
  seen_.assign(cfg_.threads, {});
}

AnalyzerSession::Ingest AnalyzerSession::ingest(const trace::Message& m,
                                                const char** error) {
  if (finished_) {
    *error = "events after the analysis finished";
    return Ingest::kError;
  }
  const ThreadId j = m.event.thread;
  if (j >= cfg_.threads) {
    *error = "message from undeclared thread";
    return Ingest::kError;
  }
  const LocalSeq k = m.clock[j];
  if (k == 0 || k > kMaxLocalSeq) {
    *error = "message own-clock out of range";
    return Ingest::kError;
  }
  auto& seen = seen_[j];
  if (k < seen.size() && seen[k]) return Ingest::kDuplicate;
  try {
    analyzer_->onMessage(m);
  } catch (const std::exception&) {
    *error = "message rejected by the analyzer";
    return Ingest::kError;
  }
  // Post-dedup message feed for the session's analysis plugins: each
  // message reaches them exactly once, in ingest order (they sort by
  // globalSeq themselves — delivery order is not a linearization).
  if (bus_ != nullptr) bus_->dispatchMessage(m);
  if (k >= seen.size()) seen.resize(k + 1, false);
  seen[k] = true;
  return Ingest::kIngested;
}

void AnalyzerSession::noteStreamEnd() {
  ++streamsEnded_;
  if (streamsEnded_ < cfg_.expectedStreams || finished_) return;
  try {
    analyzer_->endOfTrace();
    finished_ = analyzer_->finished();
  } catch (const std::exception& e) {
    streamError_ = e.what();
  }
}

std::vector<observer::AnalysisReport> AnalyzerSession::analysisReports()
    const {
  std::vector<observer::AnalysisReport> out;
  out.reserve(plugins_.size() + extras_.size());
  for (const auto& p : plugins_) out.push_back(p->report());
  for (const auto& p : extras_) out.push_back(p->report());
  return out;
}

std::string AnalyzerSession::renderReport() const {
  return renderViolationReport(space_, analyzer_->violations(),
                               analyzer_->stats(), finished_);
}

void AnalyzerSession::checkpoint(observer::ckpt::Writer& w) {
  ++epoch_;
  lastCheckpointLevel_ = analyzer_->levelsCompleted() - 1;
  w.u8(kSessionCkptVersion);
  // Config — the blob is self-contained, restore needs no handshake.
  w.u32(cfg_.threads);
  writeStringList(w, cfg_.specs);
  writeStringList(w, cfg_.handshakeSpecs);
  writeStringList(w, cfg_.tracked);
  writeStringList(w, cfg_.analyses);
  w.u32(static_cast<std::uint32_t>(cfg_.vars.size()));
  for (VarId v = 0; v < cfg_.vars.size(); ++v) {
    w.str(cfg_.vars.name(v));
    w.i64(cfg_.vars.initial(v));
    w.u8(static_cast<std::uint8_t>(cfg_.vars.role(v)));
  }
  w.u64(cfg_.expectedStreams);
  // Lattice options that are part of the analysis identity.  The parallel
  // jobs count is a runtime choice — serialized as a default the restoring
  // daemon may override.
  const observer::LatticeOptions& lat = cfg_.lattice;
  w.u8(static_cast<std::uint8_t>(lat.retention));
  w.u64(lat.maxNodesPerLevel);
  w.u64(lat.maxViolations);
  w.boolean(lat.recordPaths);
  w.u64(0);  // once the beam width; no longer an option
  w.u64(lat.memoryBudgetBytes);
  w.u64(lat.maxFrontier);
  w.u64(lat.degradationSeed);
  w.u64(lat.parallel.jobs);
  w.u64(lat.parallel.minFrontier);
  // Session bookkeeping.
  w.u64(streamsEnded_);
  w.boolean(finished_);
  w.str(streamError_);
  w.u64(epoch_);
  w.u64(restoreCount_);
  // Dedup bitmaps: the set indices per thread (sorted by construction).
  for (const auto& seen : seen_) {
    std::uint64_t count = 0;
    for (const bool b : seen) count += b ? 1 : 0;
    w.u64(count);
    for (std::uint64_t k = 0; k < seen.size(); ++k) {
      if (seen[static_cast<std::size_t>(k)]) w.u64(k);
    }
  }
  // The analyzer core, then one versioned blob per plugin (count is a
  // pure function of the config, so no explicit plugin count needed).
  analyzer_->checkpoint(w);
  for (const auto& p : plugins_) p->checkpoint(w);
  for (const auto& p : extras_) p->checkpoint(w);
}

std::unique_ptr<AnalyzerSession> AnalyzerSession::restore(
    observer::ckpt::Reader& r, std::size_t jobs) {
  if (r.u8() != kSessionCkptVersion) return nullptr;
  Config cfg;
  cfg.threads = r.u32();
  if (!readStringList(r, cfg.specs) || !readStringList(r, cfg.handshakeSpecs) ||
      !readStringList(r, cfg.tracked) || !readStringList(r, cfg.analyses)) {
    return nullptr;
  }
  const std::uint32_t varCount = r.u32();
  if (varCount > (1u << 20)) return nullptr;
  for (std::uint32_t v = 0; v < varCount && r.ok(); ++v) {
    const std::string name = r.str();
    const Value initial = r.i64();
    const std::uint8_t role = r.u8();
    if (role > static_cast<std::uint8_t>(trace::VarRole::kCondition)) {
      return nullptr;
    }
    try {
      cfg.vars.intern(name, initial, static_cast<trace::VarRole>(role));
    } catch (const std::exception&) {
      return nullptr;
    }
  }
  cfg.expectedStreams = static_cast<std::size_t>(r.u64());
  const std::uint8_t retention = r.u8();
  if (retention > static_cast<std::uint8_t>(observer::Retention::kFull)) {
    return nullptr;
  }
  cfg.lattice.retention = static_cast<observer::Retention>(retention);
  cfg.lattice.maxNodesPerLevel = static_cast<std::size_t>(r.u64());
  cfg.lattice.maxViolations = static_cast<std::size_t>(r.u64());
  cfg.lattice.recordPaths = r.boolean();
  (void)r.u64();  // once the beam width
  cfg.lattice.memoryBudgetBytes = static_cast<std::size_t>(r.u64());
  cfg.lattice.maxFrontier = static_cast<std::size_t>(r.u64());
  cfg.lattice.degradationSeed = r.u64();
  cfg.lattice.parallel.jobs = static_cast<std::size_t>(r.u64());
  cfg.lattice.parallel.minFrontier = static_cast<std::size_t>(r.u64());
  if (jobs > 0) cfg.lattice.parallel.jobs = jobs;
  if (cfg.threads == 0 || !r.ok()) return nullptr;

  std::unique_ptr<AnalyzerSession> s;
  try {
    s = std::make_unique<AnalyzerSession>(std::move(cfg));
  } catch (const std::exception&) {
    return nullptr;
  }
  s->streamsEnded_ = static_cast<std::size_t>(r.u64());
  s->finished_ = r.boolean();
  s->streamError_ = r.str();
  s->epoch_ = r.u64();
  s->restoreCount_ = r.u64() + 1;
  for (auto& seen : s->seen_) {
    const std::uint64_t count = r.len(8);
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      const std::uint64_t k = r.u64();
      if (k > kMaxLocalSeq) {
        r.fail();
        break;
      }
      if (k >= seen.size()) seen.resize(static_cast<std::size_t>(k) + 1, false);
      seen[static_cast<std::size_t>(k)] = true;
    }
  }
  if (!r.ok()) return nullptr;
  if (!s->analyzer_->restore(r)) return nullptr;
  for (auto& p : s->plugins_) {
    if (!p->restore(r)) return nullptr;
  }
  for (auto& p : s->extras_) {
    if (!p->restore(r)) return nullptr;
  }
  return r.ok() ? std::move(s) : nullptr;
}

}  // namespace mpx::analysis
