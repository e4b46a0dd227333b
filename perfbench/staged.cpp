// Staged replay for the traced run.  The daemon's internals are private,
// so its layers are measured by feeding the run's own messages, in one
// thread, through the public calls the daemon makes on them:
//
//   SparseClockCodec::encode (the emitter's frame layout, at the batch size
//   the run's emitter achieved) -> Socket::sendAll/recvSome over loopback
//   -> FrameReader::feed/next in the daemon's 16 KiB reads
//   -> decodeEventsSparsePayload -> AnalyzerSession ingest / noteStreamEnd /
//   renderReport
//
// and, separately, through a structure-only OnlineAnalyzer (no monitor),
// which splits the monitor and plugin cost out of the session's.
#include <cmath>
#include <cstring>

#include "analysis/session.hpp"
#include "bench.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "observer/online.hpp"
#include "trace/codec.hpp"

namespace perfbench {
namespace {

/// The daemon's read size (ObserverDaemon::serveConnection).
constexpr std::size_t kReadChunk = 16 * 1024;

struct Totals {
  double encodeNs = 0, socketNs = 0, readNs = 0, decodeNs = 0;
  double ingestNs = 0, finishNs = 0, structureNs = 0;
  double firstTenthNs = 0, firstTenthMsgs = 0;
  double lastTenthNs = 0, lastTenthMsgs = 0;
  std::uint64_t messages = 0, frames = 0, wireBytes = 0, socketBytes = 0;
  std::uint64_t nodes = 0;
  std::vector<double> sessionNewMs, finishMs, reportMs;
};

/// Sends `bytes` through a loopback connection in daemon-sized chunks and
/// returns what arrived; the time is charged to `t.socketNs`.
std::vector<std::uint8_t> loopback(const std::vector<std::uint8_t>& bytes,
                                   SpanLog& spans, Totals& t) {
  mpx::net::Listener listener;
  if (!listener.open(0)) return {};
  mpx::net::Socket client =
      mpx::net::Socket::connectTo("127.0.0.1", listener.port());
  mpx::net::Socket server = listener.accept();
  std::vector<std::uint8_t> out(bytes.size());
  std::size_t got = 0;
  for (std::size_t off = 0; off < bytes.size(); off += kReadChunk) {
    const std::size_t len = std::min(kReadChunk, bytes.size() - off);
    const std::int32_t s = spans.open("net.Socket::sendAll+recvSome");
    if (!client.sendAll(bytes.data() + off, len)) return {};
    while (got < off + len) {
      const std::ptrdiff_t n =
          server.recvSome(out.data() + got, off + len - got);
      if (n <= 0) return {};
      got += static_cast<std::size_t>(n);
    }
    spans.close(s);
    t.socketNs += static_cast<double>(spans.durationNs(s));
  }
  t.socketBytes += bytes.size();
  return out;
}

/// Feeds the messages to a structure-only OnlineAnalyzer (no monitor, no
/// plugins) in frame-sized groups; returns its node count.
std::uint64_t replayStructure(const Program& p,
                              const std::vector<mpx::trace::Message>& msgs,
                              std::size_t batch, SpanLog& spans, Totals& t) {
  mpx::observer::OnlineAnalyzer structure(
      mpx::observer::StateSpace::byNames(p.vars, p.tracked), p.threads,
      static_cast<mpx::observer::LatticeMonitor*>(nullptr));
  for (std::size_t first = 0; first < msgs.size(); first += batch) {
    const std::size_t last = std::min(first + batch, msgs.size());
    const std::int32_t s =
        spans.open("observer.OnlineAnalyzer::onMessage(structure)");
    for (std::size_t i = first; i < last; ++i) structure.onMessage(msgs[i]);
    spans.close(s);
    t.structureNs += static_cast<double>(spans.durationNs(s));
  }
  const std::int32_t s =
      spans.open("observer.OnlineAnalyzer::endOfTrace(structure)");
  structure.endOfTrace();
  spans.close(s);
  t.structureNs += static_cast<double>(spans.durationNs(s));
  return structure.stats().totalNodes;
}

void replayProgram(const Program& p, const Reference& ref, std::size_t batch,
                   SpanLog& spans, Totals& t, bool& reportsMatch) {
  const std::vector<mpx::trace::Message>& msgs = ref.messages;
  mpx::net::Handshake hs =
      mpx::net::makeHandshake(p.threads, p.specs, p.tracked, p.vars);
  hs.tenant = p.tenant;
  hs.traceId = p.traceId;

  // Encode exactly as the emitter's sender thread does.
  std::vector<std::uint8_t> stream;
  mpx::net::appendFrame(stream, mpx::net::FrameType::kHandshake,
                        mpx::net::encodeHandshake(hs));
  for (std::size_t first = 0; first < msgs.size(); first += batch) {
    const std::size_t last = std::min(first + batch, msgs.size());
    const std::int32_t s = spans.open("trace.SparseClockCodec::encode");
    std::vector<std::uint8_t> payload(mpx::net::kEventsTsPrefixSize);
    const std::uint64_t sendNs = static_cast<std::uint64_t>(nowNs());
    std::memcpy(payload.data(), &sendNs, sizeof sendNs);
    mpx::trace::SparseClockCodec::FrameState st;
    for (std::size_t i = first; i < last; ++i) {
      mpx::trace::SparseClockCodec::encode(msgs[i], st, payload);
    }
    spans.close(s);
    t.encodeNs += static_cast<double>(spans.durationNs(s));
    t.wireBytes += mpx::net::kFrameHeaderSize + payload.size();
    mpx::net::appendFrame(stream, mpx::net::FrameType::kEventsSparse,
                          payload);
  }
  mpx::net::appendFrame(stream, mpx::net::FrameType::kEndOfTrace, {});

  const std::vector<std::uint8_t> received = loopback(stream, spans, t);
  if (received != stream) reportsMatch = false;

  // Frame the byte stream in the daemon's read size.
  std::vector<mpx::net::Frame> frames;
  mpx::net::FrameReader reader;
  for (std::size_t off = 0; off < received.size(); off += kReadChunk) {
    const std::int32_t s = spans.open("net.FrameReader::feed+next");
    reader.feed(received.data() + off,
                std::min(kReadChunk, received.size() - off));
    mpx::net::Frame f;
    while (reader.next(f) == mpx::net::FrameReader::Status::kFrame) {
      frames.push_back(std::move(f));
    }
    spans.close(s);
    t.readNs += static_cast<double>(spans.durationNs(s));
  }

  mpx::net::Handshake decodedHs;
  const char* error = nullptr;
  if (frames.empty() ||
      !mpx::net::decodeHandshake(frames.front().payload, decodedHs, &error)) {
    reportsMatch = false;
    return;
  }
  // The lattice alone first, in its own scope: an analyzer still alive
  // while the other replays slows it measurably.
  const std::uint64_t structureNodes =
      replayStructure(p, msgs, batch, spans, t);

  mpx::analysis::AnalyzerSession::Config cfg;
  cfg.threads = decodedHs.threads;
  cfg.specs = decodedHs.specs;
  cfg.handshakeSpecs = decodedHs.specs;
  cfg.tracked = decodedHs.tracked;
  cfg.vars = decodedHs.vars;
  std::int32_t s = spans.open("analysis.AnalyzerSession::AnalyzerSession");
  mpx::analysis::AnalyzerSession session(std::move(cfg));
  spans.close(s);
  t.sessionNewMs.push_back(static_cast<double>(spans.durationNs(s)) / 1e6);

  const double n = static_cast<double>(msgs.size());
  std::size_t index = 0;
  std::vector<mpx::trace::Message> decoded;
  for (const mpx::net::Frame& f : frames) {
    if (f.type != mpx::net::FrameType::kEventsSparse) continue;
    ++t.frames;
    decoded.clear();
    std::uint64_t sendNs = 0;
    s = spans.open("trace.decodeEventsSparsePayload");
    const bool ok = mpx::net::decodeEventsSparsePayload(f.payload, sendNs,
                                                        decoded, &error);
    spans.close(s);
    t.decodeNs += static_cast<double>(spans.durationNs(s));
    if (!ok) {
      reportsMatch = false;
      return;
    }
    s = spans.open("analysis.AnalyzerSession::ingest");
    for (const mpx::trace::Message& m : decoded) {
      if (session.ingest(m, &error) !=
          mpx::analysis::AnalyzerSession::Ingest::kIngested) {
        reportsMatch = false;
      }
    }
    spans.close(s);
    const double ns = static_cast<double>(spans.durationNs(s));
    t.ingestNs += ns;
    const double pos = static_cast<double>(index);
    if (pos < n / 10) {
      t.firstTenthNs += ns;
      t.firstTenthMsgs += static_cast<double>(decoded.size());
    } else if (pos >= 9 * n / 10) {
      t.lastTenthNs += ns;
      t.lastTenthMsgs += static_cast<double>(decoded.size());
    }
    index += decoded.size();
  }
  s = spans.open("analysis.AnalyzerSession::noteStreamEnd");
  session.noteStreamEnd();
  spans.close(s);
  t.finishNs += static_cast<double>(spans.durationNs(s));
  t.finishMs.push_back(static_cast<double>(spans.durationNs(s)) / 1e6);
  s = spans.open("analysis.AnalyzerSession::renderReport+analysisReports");
  const std::string body =
      sessionReportBody(session.renderReport(), session.analysisReports());
  spans.close(s);
  t.reportMs.push_back(static_cast<double>(spans.durationNs(s)) / 1e6);
  if (body != ref.report || index != msgs.size() ||
      structureNodes != session.stats().totalNodes) {
    reportsMatch = false;
  }
  t.messages += msgs.size();
  t.nodes += session.stats().totalNodes;
}

}  // namespace

StagedResult runStaged(const Workload& w, const std::vector<Reference>& refs,
                       double msgsPerFrame, SpanLog& spans) {
  gStage = "staged replay";
  const auto batch = static_cast<std::size_t>(
      std::clamp(std::llround(msgsPerFrame), 1LL, 128LL));
  Totals t;
  StagedResult r;
  for (std::size_t i = 0; i < w.programs.size(); ++i) {
    replayProgram(w.programs[i], refs[i], batch, spans, t, r.reportsMatch);
  }
  const auto atLeastOne = [](std::uint64_t n) {
    return static_cast<double>(std::max<std::uint64_t>(n, 1));
  };
  const double msgs = atLeastOne(t.messages);
  const double nodes = atLeastOne(t.nodes);
  r.encodeNsPerMsg = t.encodeNs / msgs;
  r.wireBytesPerMsg = static_cast<double>(t.wireBytes) / msgs;
  r.socketNsPerKiB = t.socketNs / (atLeastOne(t.socketBytes) / 1024.0);
  r.readNsPerFrame = t.readNs / atLeastOne(t.frames);
  r.decodeNsPerMsg = t.decodeNs / msgs;
  r.sessionNewMs = median(t.sessionNewMs);
  r.ingestNsPerMsg = t.ingestNs / msgs;
  if (t.firstTenthMsgs > 0 && t.lastTenthMsgs > 0 && t.firstTenthNs > 0) {
    r.ingestGrowth = (t.lastTenthNs / t.lastTenthMsgs) /
                     (t.firstTenthNs / t.firstTenthMsgs);
  }
  r.finishMs = median(t.finishMs);
  r.reportMs = median(t.reportMs);
  r.structureNsPerMsg = t.structureNs / msgs;
  r.nsPerNode = (t.ingestNs + t.finishNs) / nodes;
  r.monitorNsPerNode = (t.ingestNs + t.finishNs - t.structureNs) / nodes;
  r.stagedDaemonNsPerMsg =
      (t.readNs + t.decodeNs + t.ingestNs + t.finishNs) / msgs;
  return r;
}

}  // namespace perfbench
