// Loopback end-to-end: the full Fig. 4 deployment on 127.0.0.1.  A socket-
// fed ObserverDaemon must produce exactly the analysis an in-process
// OnlineAnalyzer produces — identical violation sets, lattice statistics
// and rendered reports — and must survive every hostile lifecycle edge:
// clients killed mid-stream, zero-message streams, random bytes, HTTP
// probes, protocol violations.
#include "net/observerd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "../support/fixtures.hpp"
#include "analysis/engine.hpp"
#include "program/scheduler.hpp"
#include "logic/monitor.hpp"
#include "logic/parser.hpp"
#include "logic/spec_analysis.hpp"
#include "observer/analysis.hpp"
#include "net/emitter.hpp"
#include "observer/online.hpp"
#include "program/corpus.hpp"
#include "telemetry/metrics.hpp"
#include "trace/codec.hpp"

namespace mpx::net {
namespace {

using namespace std::chrono_literals;
using mpx::testing::ObservedComputation;
using mpx::testing::landingComputation;
using mpx::testing::xyzComputation;

std::vector<trace::Message> messagesInOrder(
    const observer::CausalityGraph& g) {
  std::vector<trace::Message> out;
  for (const auto& ref : g.observedOrder()) out.push_back(g.message(ref));
  return out;
}

/// The reference result: an in-process OnlineAnalyzer over the same
/// messages, rendered through the same report code as the daemon.
struct Reference {
  std::vector<observer::Violation> violations;
  observer::LatticeStats stats;
  std::string report;
};

Reference inProcess(const ObservedComputation& c, const char* spec) {
  std::unique_ptr<logic::SynthesizedMonitor> mon;
  if (spec != nullptr && *spec != '\0') {
    mon = std::make_unique<logic::SynthesizedMonitor>(
        logic::SpecParser(c.space).parse(spec));
  }
  observer::OnlineAnalyzer a(c.space, c.prog.threadCount(), mon.get());
  for (const auto& m : messagesInOrder(c.graph)) a.onMessage(m);
  a.endOfTrace();
  EXPECT_TRUE(a.finished());
  Reference r;
  r.violations = a.violations();
  r.stats = a.stats();
  r.report = renderViolationReport(c.space, a.violations(), a.stats(),
                                   a.finished());
  return r;
}

Handshake handshakeFor(const ObservedComputation& c, const char* spec,
                       const std::vector<std::string>& tracked) {
  return makeHandshake(static_cast<std::uint32_t>(c.prog.threadCount()),
                       spec != nullptr ? spec : "", tracked, c.prog.vars);
}

DaemonOptions quietDaemon(std::size_t streams = 1) {
  DaemonOptions o;
  o.expectedStreams = streams;
  o.logErrors = false;
  return o;
}

EmitterOptions emitterTo(std::uint16_t port, Handshake h) {
  EmitterOptions o;
  o.port = port;
  o.handshake = std::move(h);
  o.reconnectBase = 1ms;
  o.reconnectMax = 20ms;
  return o;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

/// Sends raw frames over a fresh connection (the "manual client" used for
/// lifecycle-edge tests); returns the socket for further abuse.
Socket rawClient(std::uint16_t port) {
  Socket s = Socket::connectTo("127.0.0.1", port);
  EXPECT_TRUE(s.valid());
  return s;
}

void sendFrame(Socket& s, FrameType type,
               const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  appendFrame(bytes, type, payload);
  ASSERT_TRUE(s.sendAll(bytes.data(), bytes.size()));
}

std::vector<std::uint8_t> eventsPayload(
    const std::vector<trace::Message>& ms) {
  std::vector<std::uint8_t> payload;
  for (const trace::Message& m : ms) trace::BinaryCodec::encode(m, payload);
  return payload;
}

TEST(NetDaemonE2E, LoopbackEqualsInProcessOnLanding) {
  const auto c = landingComputation();
  const char* spec = program::corpus::landingProperty();
  const Reference ref = inProcess(c, spec);
  ASSERT_FALSE(ref.violations.empty());  // the paper's predicted violation

  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());
  {
    SocketEmitter emitter(emitterTo(
        daemon.port(),
        handshakeFor(c, spec, {"landing", "approved", "radio"})));
    for (const auto& m : messagesInOrder(c.graph)) emitter.onMessage(m);
    emitter.close();
    EXPECT_EQ(emitter.droppedMessages(), 0u);
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();

  EXPECT_EQ(daemon.renderReport(), ref.report);
  EXPECT_EQ(daemon.violations().size(), ref.violations.size());
  EXPECT_EQ(daemon.stats().totalNodes, ref.stats.totalNodes);
  EXPECT_EQ(daemon.stats().pathCount, ref.stats.pathCount);
  EXPECT_EQ(daemon.stats().levels, ref.stats.levels);
  EXPECT_EQ(daemon.messagesIngested(), messagesInOrder(c.graph).size());
  daemon.stop();
}

TEST(NetDaemonE2E, TwoInterleavedChannelsMatchInProcess) {
  const auto c = xyzComputation();
  const char* spec = program::corpus::xyzProperty();
  const Reference ref = inProcess(c, spec);

  ObserverDaemon daemon(quietDaemon(/*streams=*/2));
  ASSERT_TRUE(daemon.start());
  const Handshake h = handshakeFor(c, spec, {"x", "y", "z"});
  {
    // Split the trace alternately across two connections — Theorem 3 says
    // the daemon must reassemble the causality regardless.
    SocketEmitter a(emitterTo(daemon.port(), h));
    SocketEmitter b(emitterTo(daemon.port(), h));
    const auto msgs = messagesInOrder(c.graph);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      (i % 2 == 0 ? a : b).onMessage(msgs[i]);
    }
    a.close();
    b.close();
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();

  EXPECT_EQ(daemon.renderReport(), ref.report);
  EXPECT_EQ(daemon.violations().size(), ref.violations.size());
  EXPECT_EQ(daemon.stats().totalNodes, ref.stats.totalNodes);
  daemon.stop();
}

TEST(NetDaemonE2E, ClientKilledMidStreamThenAnalysisRecovers) {
  const auto c = landingComputation();
  const char* spec = program::corpus::landingProperty();
  const Reference ref = inProcess(c, spec);
  const auto msgs = messagesInOrder(c.graph);
  const Handshake h = handshakeFor(c, spec, {"landing", "approved", "radio"});

  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());

  // A client that is SIGKILLed mid-stream: handshake, half the messages,
  // then the connection just vanishes — no kEndOfTrace, no goodbye.
  const std::size_t half = msgs.size() / 2;
  {
    Socket victim = rawClient(daemon.port());
    sendFrame(victim, FrameType::kHandshake, encodeHandshake(h));
    sendFrame(victim, FrameType::kEvents,
              eventsPayload({msgs.begin(),
                             msgs.begin() + static_cast<std::ptrdiff_t>(half)}));
    victim.close();  // abrupt death
  }
  ASSERT_TRUE(eventually([&] { return daemon.connectionsAborted() == 1; }));
  EXPECT_FALSE(daemon.finished());
  EXPECT_NE(daemon.renderReport().find("INCOMPLETE"), std::string::npos);

  // The client restarts and (at-least-once) resends the WHOLE trace; the
  // daemon deduplicates the first half and completes the analysis.
  {
    SocketEmitter emitter(emitterTo(daemon.port(), h));
    for (const auto& m : msgs) emitter.onMessage(m);
    emitter.close();
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();
  EXPECT_EQ(daemon.duplicatesIgnored(), static_cast<std::uint64_t>(half));
  EXPECT_EQ(daemon.messagesIngested(), msgs.size());
  EXPECT_EQ(daemon.renderReport(), ref.report);
  daemon.stop();
}

TEST(NetDaemonE2E, ZeroMessageStreamFinishesCleanly) {
  trace::VarTable vars;
  vars.intern("x", 0);
  const Handshake h = makeHandshake(2, "", {"x"}, vars);

  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());
  {
    Socket client = rawClient(daemon.port());
    sendFrame(client, FrameType::kHandshake, encodeHandshake(h));
    sendFrame(client, FrameType::kEndOfTrace, {});
    client.shutdownWrite();
  }
  ASSERT_TRUE(daemon.waitFinished(5000ms)) << daemon.streamError();
  EXPECT_TRUE(daemon.violations().empty());
  EXPECT_NE(daemon.renderReport().find("analysis complete"),
            std::string::npos);
  EXPECT_EQ(daemon.connectionsAborted(), 0u);
  daemon.stop();
}

TEST(NetDaemonE2E, RandomBytesNeverTakeTheDaemonDown) {
  const auto c = landingComputation();
  const char* spec = program::corpus::landingProperty();
  const Reference ref = inProcess(c, spec);

  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());

  // Garbage first: 4 KiB of bytes that are neither frames nor HTTP.
  {
    Socket garbage = rawClient(daemon.port());
    std::vector<std::uint8_t> junk(4096);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;  // deterministic splitmix-ish
    for (auto& b : junk) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      b = static_cast<std::uint8_t>(x * 0x2545f4914f6cdd1dull >> 56);
    }
    junk[0] = 0xAB;  // definitely not the magic, not "GET"/"HEAD"
    garbage.sendAll(junk.data(), junk.size());
    garbage.close();
  }
  ASSERT_TRUE(eventually([&] { return daemon.connectionsRejected() >= 1; }));
  EXPECT_FALSE(daemon.handshaken());

  // A mid-frame truncation (valid prefix, then death) must not stick either.
  {
    const Handshake h = handshakeFor(c, spec, {"landing", "approved", "radio"});
    Socket truncated = rawClient(daemon.port());
    std::vector<std::uint8_t> bytes;
    appendFrame(bytes, FrameType::kHandshake, encodeHandshake(h));
    truncated.sendAll(bytes.data(), bytes.size() / 2);
    truncated.close();
  }
  ASSERT_TRUE(eventually([&] { return daemon.connectionsRejected() >= 2; }));

  // ...and a clean client still gets a full, correct analysis.
  {
    SocketEmitter emitter(emitterTo(
        daemon.port(),
        handshakeFor(c, spec, {"landing", "approved", "radio"})));
    for (const auto& m : messagesInOrder(c.graph)) emitter.onMessage(m);
    emitter.close();
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();
  EXPECT_EQ(daemon.renderReport(), ref.report);
  daemon.stop();
}

TEST(NetDaemonE2E, HttpProbeGetsStatusPage) {
  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());
  Socket probe = rawClient(daemon.port());
  const std::string req = "GET / HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(probe.sendAll(req.data(), req.size()));
  std::string response;
  char buf[4096];
  std::ptrdiff_t n;
  while ((n = probe.recvSome(buf, sizeof buf)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("mpx_observerd status"), std::string::npos);
  EXPECT_NE(response.find("handshaken: no"), std::string::npos);
  daemon.stop();
}

TEST(NetDaemonE2E, ProtocolViolationsAreRejectedNotFatal) {
  trace::VarTable vars;
  vars.intern("x", 0);
  const Handshake h = makeHandshake(2, "", {"x"}, vars);

  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());

  {
    // Events before handshake.
    trace::Message m;
    m.event.thread = 0;
    m.clock.set(0, 1);
    Socket s = rawClient(daemon.port());
    sendFrame(s, FrameType::kEvents, eventsPayload({m}));
    s.shutdownWrite();
  }
  ASSERT_TRUE(eventually([&] { return daemon.connectionsRejected() >= 1; }));

  {
    // A handshake declaring 2^24 threads: wider than any decodable clock,
    // so it is refused before the session would size its tables by it.
    Socket s = rawClient(daemon.port());
    sendFrame(s, FrameType::kHandshake,
              encodeHandshake(makeHandshake(1u << 24, "", {"x"}, vars)));
    s.shutdownWrite();
  }
  ASSERT_TRUE(eventually([&] { return daemon.connectionsRejected() >= 2; }));
  EXPECT_EQ(daemon.sessionCount(), 0u);

  {
    // Message from a thread the handshake never declared.
    trace::Message m;
    m.event.thread = 9;
    m.clock.set(9, 1);
    Socket s = rawClient(daemon.port());
    sendFrame(s, FrameType::kHandshake, encodeHandshake(h));
    sendFrame(s, FrameType::kEvents, eventsPayload({m}));
    s.shutdownWrite();
  }
  ASSERT_TRUE(eventually([&] { return daemon.connectionsAborted() >= 1; }));

  // The daemon is still healthy: a clean zero-message stream finishes.
  {
    Socket s = rawClient(daemon.port());
    sendFrame(s, FrameType::kHandshake, encodeHandshake(h));
    sendFrame(s, FrameType::kEndOfTrace, {});
    s.shutdownWrite();
  }
  ASSERT_TRUE(daemon.waitFinished(5000ms)) << daemon.streamError();
  daemon.stop();
}

TEST(NetDaemonE2E, MultiSpecHandshakeRunsKPlugins) {
  // Wire protocol v2: the handshake carries a LIST of specs and the daemon
  // runs one SpecAnalysis plugin per spec on its shared bus.  Reference:
  // the same K plugins driven in-process over the same messages.
  const auto c = landingComputation();
  const std::vector<std::string> specs{
      program::corpus::landingProperty(), "!(landing = 1 && radio = 0)"};

  std::vector<std::string> refTexts;
  {
    std::vector<std::unique_ptr<logic::SpecAnalysis>> plugins;
    std::vector<observer::Analysis*> raw;
    for (const auto& spec : specs) {
      plugins.push_back(std::make_unique<logic::SpecAnalysis>(
          c.space, logic::SpecParser(c.space).parse(spec), spec));
      raw.push_back(plugins.back().get());
    }
    observer::AnalysisBus bus(raw);
    observer::OnlineAnalyzer a(c.space, c.prog.threadCount(), bus,
                               observer::LatticeOptions{});
    for (const auto& m : messagesInOrder(c.graph)) a.onMessage(m);
    a.endOfTrace();
    ASSERT_TRUE(a.finished());
    for (const auto& r : bus.reports()) refTexts.push_back(r.text);
  }

  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());
  {
    SocketEmitter emitter(emitterTo(
        daemon.port(),
        makeHandshake(static_cast<std::uint32_t>(c.prog.threadCount()), specs,
                      {"landing", "approved", "radio"}, c.prog.vars)));
    for (const auto& m : messagesInOrder(c.graph)) emitter.onMessage(m);
    emitter.close();
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();

  EXPECT_EQ(daemon.specs(), specs);
  const auto reports = daemon.analysisReports();
  ASSERT_EQ(reports.size(), specs.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].name, "ptltl: " + specs[i]);
    EXPECT_EQ(reports[i].text, refTexts[i]) << specs[i];
    EXPECT_GT(reports[i].violationCount, 0u) << specs[i];
  }
  daemon.stop();
}

TEST(NetDaemonE2E, DaemonSidePropertyJoinsHandshakeSpecs) {
  // mpx_observerd --property adds daemon-side specs; duplicates of
  // handshake specs are ignored.
  const auto c = landingComputation();
  const std::string fromClient = program::corpus::landingProperty();
  const std::string fromDaemon = "!(landing = 1 && radio = 0)";

  DaemonOptions opts = quietDaemon();
  opts.extraSpecs = {fromDaemon, fromClient};  // second one is a duplicate
  ObserverDaemon daemon(opts);
  ASSERT_TRUE(daemon.start());
  {
    SocketEmitter emitter(emitterTo(
        daemon.port(),
        makeHandshake(static_cast<std::uint32_t>(c.prog.threadCount()),
                      fromClient, {"landing", "approved", "radio"},
                      c.prog.vars)));
    for (const auto& m : messagesInOrder(c.graph)) emitter.onMessage(m);
    emitter.close();
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();

  EXPECT_EQ(daemon.specs(),
            (std::vector<std::string>{fromClient, fromDaemon}));
  const auto reports = daemon.analysisReports();
  ASSERT_EQ(reports.size(), 2u);
  // The daemon never sees observed states — only MVC messages.
  for (const auto& r : reports) {
    EXPECT_NE(r.text.find("observed run: (not monitored)"), std::string::npos)
        << r.name;
  }
  daemon.stop();
}

// --- trace-context propagation (wire v3): lag, watermark, introspection ---

std::vector<std::uint8_t> eventsTsPayload(
    const std::vector<trace::Message>& ms, std::uint64_t sendNs) {
  std::vector<std::uint8_t> payload(kEventsTsPrefixSize);
  for (std::size_t i = 0; i < kEventsTsPrefixSize; ++i) {
    payload[i] = static_cast<std::uint8_t>(sendNs >> (8 * i));
  }
  for (const trace::Message& m : ms) trace::BinaryCodec::encode(m, payload);
  return payload;
}

std::string httpGet(std::uint16_t port, const std::string& path) {
  Socket probe = rawClient(port);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(probe.sendAll(req.data(), req.size()));
  std::string response;
  char buf[4096];
  std::ptrdiff_t n;
  while ((n = probe.recvSome(buf, sizeof buf)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(NetDaemonE2E, AllWireVersionsMatchInProcess) {
  // The default emitter now speaks v4 (kEventsSparse); v2 (kEvents) and v3
  // (kEventsTs) peers carrying the identical messages must still yield a
  // byte-identical report — timestamps and clock coding are transport
  // concerns, never analysis input.
  const auto c = landingComputation();
  const char* spec = program::corpus::landingProperty();
  const Reference ref = inProcess(c, spec);
  const auto msgs = messagesInOrder(c.graph);

  for (const std::uint16_t version :
       {kListSpecProtocolVersion, kTraceContextProtocolVersion,
        kSparseClockProtocolVersion, kMultiTenantProtocolVersion,
        kRegionProtocolVersion}) {
    ObserverDaemon daemon(quietDaemon());
    ASSERT_TRUE(daemon.start());
    Handshake h = handshakeFor(c, spec, {"landing", "approved", "radio"});
    h.version = version;
    {
      SocketEmitter emitter(emitterTo(daemon.port(), h));
      for (const auto& m : msgs) emitter.onMessage(m);
      emitter.close();
    }
    ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();
    EXPECT_EQ(daemon.renderReport(), ref.report) << "version " << version;

    // v3+ streams register under their stream id with measured lag; v2
    // streams aggregate under the legacy id 0 with no lag samples.
    const auto streams = daemon.streamSnapshots();
    ASSERT_EQ(streams.size(), 1u) << "version " << version;
    const StreamSnapshot& s = streams[0];
    EXPECT_EQ(s.version, version);
    EXPECT_EQ(s.messages, msgs.size());
    EXPECT_TRUE(s.ended);
    EXPECT_EQ(s.framesInFlight, 0u);
    if (version >= kTraceContextProtocolVersion) {
      EXPECT_NE(s.streamId, 0u);
      EXPECT_GE(s.receiveLag.count, 1u);
      EXPECT_GE(s.analyzeLag.count, 1u);
    } else {
      EXPECT_EQ(s.streamId, 0u);
      EXPECT_EQ(s.receiveLag.count, 0u);
      EXPECT_EQ(s.analyzeLag.count, 0u);
    }
    daemon.stop();
  }
}

TEST(NetDaemonE2E, WatermarkAdvancesMonotonicallyToFinalLevelCount) {
  // Feed the trace one kEventsTs frame per message and require the
  // progress watermark to (a) never regress and (b) land exactly on the
  // final level count - 1 (levels are the lattice's 0-based frontier
  // sequence; "fully analyzed" = last level).
  const auto c = xyzComputation();
  const char* spec = program::corpus::xyzProperty();
  const auto msgs = messagesInOrder(c.graph);

  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());
  Handshake h = handshakeFor(c, spec, {"x", "y", "z"});
  h.streamId = 0x51;

  Socket client = rawClient(daemon.port());
  sendFrame(client, FrameType::kHandshake, encodeHandshake(h));
  std::uint64_t lastWatermark = 0;
  std::uint64_t fed = 0;
  for (const auto& m : msgs) {
    sendFrame(client, FrameType::kEventsTs,
              eventsTsPayload({m}, /*sendNs=*/1000 + fed));
    ++fed;
    // Wait until the daemon has ingested this frame, then sample.
    ASSERT_TRUE(eventually([&] { return daemon.messagesIngested() >= fed; }));
    const std::uint64_t w = daemon.watermarkLevel();
    EXPECT_GE(w, lastWatermark) << "watermark regressed at message " << fed;
    lastWatermark = w;
  }
  sendFrame(client, FrameType::kEndOfTrace, {});
  client.shutdownWrite();
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();

  EXPECT_EQ(daemon.watermarkLevel(),
            static_cast<std::uint64_t>(daemon.stats().levels) - 1);
  const auto streams = daemon.streamSnapshots();
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].streamId, 0x51u);
  EXPECT_EQ(streams[0].framesInFlight, 0u)
      << "every timestamped frame must settle by end of trace";
  EXPECT_EQ(streams[0].frames, msgs.size());
  EXPECT_EQ(streams[0].receiveLag.count, msgs.size());
  EXPECT_EQ(streams[0].analyzeLag.count, msgs.size());
  daemon.stop();
}

TEST(NetDaemonE2E, StreamsEndpointMatchesDaemonAccessors) {
  const auto c = landingComputation();
  const char* spec = program::corpus::landingProperty();
  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());
  {
    SocketEmitter emitter(emitterTo(
        daemon.port(),
        handshakeFor(c, spec, {"landing", "approved", "radio"})));
    for (const auto& m : messagesInOrder(c.graph)) emitter.onMessage(m);
    emitter.close();
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();

  const std::string response = httpGet(daemon.port(), "/streams");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  // The endpoint body is exactly the daemon's own renderer, which must
  // agree with the structured accessors.
  const std::size_t body = response.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  EXPECT_EQ(response.substr(body + 4), daemon.renderStreamsJson());

  const auto streams = daemon.streamSnapshots();
  ASSERT_EQ(streams.size(), 1u);
  const std::string expectLevels =
      "\"levels\": " + std::to_string(daemon.stats().levels);
  const std::string expectWatermark =
      "\"watermark_level\": " + std::to_string(daemon.watermarkLevel());
  const std::string expectMessages =
      "\"messages\": " + std::to_string(streams[0].messages);
  EXPECT_NE(response.find(expectLevels), std::string::npos) << response;
  EXPECT_NE(response.find(expectWatermark), std::string::npos) << response;
  EXPECT_NE(response.find(expectMessages), std::string::npos) << response;
  daemon.stop();
}

TEST(NetDaemonE2E, IntrospectionEndpointsServeHealthMetricsAndReport) {
  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());

  const std::string health = httpGet(daemon.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = httpGet(daemon.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  if (telemetry::kEnabled) {
    EXPECT_NE(metrics.find("mpx_pipeline_watermark_level"),
              std::string::npos);
    EXPECT_NE(metrics.find("# TYPE mpx_pipeline_receive_lag_ns histogram"),
              std::string::npos);
  }

  const std::string report = httpGet(daemon.port(), "/report");
  EXPECT_NE(report.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(report.find("INCOMPLETE"), std::string::npos);

  const std::string flight = httpGet(daemon.port(), "/flightrecorder");
  EXPECT_NE(flight.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(flight.find("\"recorded\""), std::string::npos);
  EXPECT_NE(flight.find("conn_accepted"), std::string::npos);

  const std::string missing = httpGet(daemon.port(), "/no-such-endpoint");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);
  daemon.stop();
}

// ===================================================================
// Wire v6: region events + daemon-side analyses (ISSUE 10).
// ===================================================================

/// The atomicity demo's messages (region markers included) under the
/// canonical violating interleaving, in delivered order.
std::vector<trace::Message> atomicityDemoMessages(
    const program::Program& prog) {
  program::FixedScheduler sched(
      program::corpus::atomicityDemoViolatingSchedule());
  program::Executor ex(prog, sched);
  analysis::EngineConfig ec;
  ec.extraTrackedVars = {"acct", "audit"};
  const analysis::Engine engine(prog, ec);
  return messagesInOrder(engine.run(ex.run()).causality);
}

TEST(NetDaemonE2E, WireV6RegionStreamFeedsDaemonSideAnalyses) {
  const program::Program prog = program::corpus::atomicityDemo();
  const auto msgs = atomicityDemoMessages(prog);
  ASSERT_TRUE(std::any_of(msgs.begin(), msgs.end(), [](const auto& m) {
    return trace::isRegionMarker(m.event.kind);
  }));

  DaemonOptions opts = quietDaemon();
  opts.analyses = {"atomicity", "mhp"};
  ObserverDaemon daemon(opts);
  ASSERT_TRUE(daemon.start());

  Handshake h = makeHandshake(
      static_cast<std::uint32_t>(prog.threadCount()), "", {"acct", "audit"},
      prog.vars);
  {
    SocketEmitter emitter(emitterTo(daemon.port(), h));
    for (const auto& m : msgs) emitter.onMessage(m);
    emitter.close();
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();

  // The daemon-side plugins analyzed the socket-fed regions: the demo's
  // region is reported with its witness cycle.
  const auto reports = daemon.analysisReports();
  std::string atomText;
  std::string mhpText;
  for (const auto& r : reports) {
    if (r.kind == "atomicity") atomText = r.text;
    if (r.kind == "mhp") mhpText = r.text;
  }
  EXPECT_NE(atomText.find("violations=1"), std::string::npos) << atomText;
  EXPECT_NE(atomText.find("region T1#1 r1: cycle"), std::string::npos)
      << atomText;
  EXPECT_NE(mhpText.find("never-concurrent-pairs="), std::string::npos)
      << mhpText;
  daemon.stop();
}

TEST(NetDaemonE2E, PreV6PeerSendingRegionEventsIsDropped) {
  const program::Program prog = program::corpus::atomicityDemo();
  const auto msgs = atomicityDemoMessages(prog);

  DaemonOptions opts = quietDaemon();
  opts.analyses = {"atomicity"};
  ObserverDaemon daemon(opts);
  ASSERT_TRUE(daemon.start());

  Handshake h = makeHandshake(
      static_cast<std::uint32_t>(prog.threadCount()), "", {"acct", "audit"},
      prog.vars);

  {
    // A v5 peer has no business emitting region kinds: the codec decodes
    // them (one shared grammar), but the daemon drops the connection at
    // the capability gate instead of feeding the analyses.
    Handshake old = h;
    old.version = kMultiTenantProtocolVersion;
    Socket s = rawClient(daemon.port());
    sendFrame(s, FrameType::kHandshake, encodeHandshake(old));
    sendFrame(s, FrameType::kEvents, eventsPayload(msgs));
    s.shutdownWrite();
  }
  ASSERT_TRUE(eventually([&] { return daemon.connectionsAborted() >= 1; }));

  // The daemon survived, and a v6 peer replaying the same stream (regions
  // and all) completes the analysis.
  {
    SocketEmitter emitter(emitterTo(daemon.port(), h));
    for (const auto& m : msgs) emitter.onMessage(m);
    emitter.close();
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();
  const auto reports = daemon.analysisReports();
  std::string atomText;
  for (const auto& r : reports) {
    if (r.kind == "atomicity") atomText = r.text;
  }
  EXPECT_NE(atomText.find("violations=1"), std::string::npos) << atomText;
  daemon.stop();
}

}  // namespace
}  // namespace mpx::net
