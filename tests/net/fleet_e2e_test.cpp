// Multi-tenant sessions + epoch checkpoint/restore, end to end on
// loopback: tenants must be fully isolated on one daemon, a killed daemon
// restored from its snapshot must finish with a report byte-identical to
// an uninterrupted run (the emitter's resend window replays the gap), and
// the per-tenant admission cap must shed one tenant without touching the
// others.
#include "net/observerd.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../support/fixtures.hpp"
#include "logic/parser.hpp"
#include "net/emitter.hpp"
#include "net/snapshot.hpp"
#include "program/corpus.hpp"
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

Handshake tenantHandshake(const ObservedComputation& c, const char* spec,
                          const std::vector<std::string>& tracked,
                          const std::string& tenant, std::uint64_t traceId) {
  Handshake h = makeHandshake(static_cast<std::uint32_t>(c.prog.threadCount()),
                              spec != nullptr ? spec : "", tracked, c.prog.vars);
  h.tenant = tenant;
  h.traceId = traceId;
  return h;
}

DaemonOptions quietDaemon() {
  DaemonOptions o;
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

/// The uninterrupted reference: one daemon, one clean run, same handshake.
std::string referenceReport(const ObservedComputation& c, const char* spec,
                            const std::vector<std::string>& tracked) {
  ObserverDaemon daemon(quietDaemon());
  EXPECT_TRUE(daemon.start());
  {
    SocketEmitter emitter(
        emitterTo(daemon.port(), tenantHandshake(c, spec, tracked, "", 0)));
    for (const auto& m : messagesInOrder(c.graph)) emitter.onMessage(m);
    emitter.close();
  }
  EXPECT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();
  std::string report = daemon.renderReport();
  daemon.stop();
  return report;
}

TEST(NetFleetE2E, TwoTenantsRunIsolatedSessionsOnOneDaemon) {
  // Tenant A analyzes the landing trace, tenant B the xyz trace, through
  // ONE daemon concurrently.  Each session must produce exactly the report
  // a dedicated daemon produces — same specs, same violations, no
  // cross-tenant bleed through shared arenas or counters.
  const auto landing = landingComputation();
  const auto xyz = xyzComputation();
  const char* landingSpec = program::corpus::landingProperty();
  const char* xyzSpec = program::corpus::xyzProperty();
  const std::string refLanding =
      referenceReport(landing, landingSpec, {"landing", "approved", "radio"});
  const std::string refXyz = referenceReport(xyz, xyzSpec, {"x", "y", "z"});
  ASSERT_NE(refLanding, refXyz);

  ObserverDaemon daemon(quietDaemon());
  ASSERT_TRUE(daemon.start());
  {
    SocketEmitter a(emitterTo(
        daemon.port(), tenantHandshake(landing, landingSpec,
                                       {"landing", "approved", "radio"},
                                       "tenant-a", 1)));
    SocketEmitter b(emitterTo(
        daemon.port(),
        tenantHandshake(xyz, xyzSpec, {"x", "y", "z"}, "tenant-b", 2)));
    const auto msgsA = messagesInOrder(landing.graph);
    const auto msgsB = messagesInOrder(xyz.graph);
    const std::size_t n = std::max(msgsA.size(), msgsB.size());
    for (std::size_t i = 0; i < n; ++i) {  // interleave the two tenants
      if (i < msgsA.size()) a.onMessage(msgsA[i]);
      if (i < msgsB.size()) b.onMessage(msgsB[i]);
    }
    // Both handshakes must be routed before either stream ENDS: the finish
    // condition is all-sessions-finished, which would be trivially true of
    // a lone tenant-a session if tenant-b's handshake were still in flight.
    // (The emitter connects lazily with its first frame, so this can only
    // be awaited after messages have been enqueued.)
    ASSERT_TRUE(eventually([&] { return daemon.sessionCount() == 2u; }));
    a.close();
    b.close();
  }
  ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();

  ASSERT_EQ(daemon.sessionCount(), 2u);
  const auto sessions = daemon.sessionSnapshots();
  ASSERT_EQ(sessions.size(), 2u);  // sorted by (tenant, trace id)
  EXPECT_EQ(sessions[0].tenant, "tenant-a");
  EXPECT_EQ(sessions[0].traceId, 1u);
  EXPECT_TRUE(sessions[0].finished);
  EXPECT_GT(sessions[0].violations, 0u);  // landing predicts a violation
  EXPECT_EQ(sessions[1].tenant, "tenant-b");
  EXPECT_EQ(sessions[1].traceId, 2u);
  EXPECT_TRUE(sessions[1].finished);

  // /streams carries both sessions and tags each stream with its tenant.
  const std::string json = daemon.renderStreamsJson();
  EXPECT_NE(json.find("\"tenant\": \"tenant-a\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant\": \"tenant-b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"sessions_active\": 2"), std::string::npos) << json;
  daemon.stop();
}

TEST(NetFleetE2E, KillRestoreResumesByteIdenticalMidTrace) {
  // The tentpole crash drill: daemon checkpoints at every watermark
  // advance, dies (hard stop, no farewell checkpoint) with frames past the
  // last checkpoint lost, a fresh daemon restores the snapshot on the same
  // port, the emitter reconnects — resending its handshake verbatim and
  // replaying its recent-frame window — and the finished report is
  // byte-identical to an uninterrupted run's.
  const auto c = landingComputation();
  const char* spec = program::corpus::landingProperty();
  const std::vector<std::string> tracked{"landing", "approved", "radio"};
  const std::string ref = referenceReport(c, spec, tracked);
  const auto msgs = messagesInOrder(c.graph);
  const std::string snap =
      ::testing::TempDir() + "mpx_fleet_e2e_kill_restore.snapshot";
  std::remove(snap.c_str());

  DaemonOptions opts = quietDaemon();
  opts.checkpointPath = snap;
  opts.checkpointIntervalLevels = 1;
  auto daemonA = std::make_unique<ObserverDaemon>(opts);
  ASSERT_TRUE(daemonA->start());
  const std::uint16_t port = daemonA->port();

  EmitterOptions eopts = emitterTo(
      port, tenantHandshake(c, spec, tracked, "tenant-kr", 0xC0FFEE));
  eopts.maxBatch = 1;              // one frame per message: fine-grained gap
  eopts.resendWindowFrames = 512;  // window covers the whole trace
  eopts.maxReconnectAttempts = 500;
  eopts.reconnectMax = 50ms;
  SocketEmitter emitter(eopts);

  const std::size_t firstHalf = msgs.size() / 2;
  for (std::size_t i = 0; i < firstHalf; ++i) emitter.onMessage(msgs[i]);
  // Wait until the first half is ingested, then force a mid-trace epoch the
  // way SIGTERM does.  (The interval trigger alone is not guaranteed here: a
  // consistent half-prefix can leave a thread starved so no NEW lattice
  // level completes and the watermark stays put.)
  ASSERT_TRUE(eventually(
      [&] { return daemonA->messagesIngested() >= firstHalf; }));
  ASSERT_TRUE(daemonA->checkpointNow());
  const std::uint64_t epochsWritten = daemonA->checkpointsWritten();
  ASSERT_GE(epochsWritten, 1u);

  daemonA->stop();  // the crash: no final checkpoint, connections cut
  daemonA.reset();

  auto daemonB = std::make_unique<ObserverDaemon>([&] {
    DaemonOptions o = opts;
    o.port = port;  // same endpoint, so the emitter's reconnect finds it
    return o;
  }());
  ASSERT_TRUE(daemonB->start());
  EXPECT_EQ(daemonB->sessionsRestored(), 1u);
  ASSERT_EQ(daemonB->sessionCount(), 1u);
  {
    const auto sessions = daemonB->sessionSnapshots();
    ASSERT_EQ(sessions.size(), 1u);
    EXPECT_EQ(sessions[0].tenant, "tenant-kr");
    EXPECT_EQ(sessions[0].traceId, 0xC0FFEEu);
    EXPECT_EQ(sessions[0].restores, 1u);
    EXPECT_GE(sessions[0].epoch, epochsWritten);
    EXPECT_FALSE(sessions[0].finished);
  }

  // The client never noticed: it keeps emitting, the sender reconnects,
  // replays the window (daemon B dedups the checkpointed prefix) and ends
  // the trace.
  for (std::size_t i = firstHalf; i < msgs.size(); ++i) {
    emitter.onMessage(msgs[i]);
  }
  emitter.close();
  EXPECT_FALSE(emitter.failed());
  EXPECT_EQ(emitter.droppedMessages(), 0u);
  EXPECT_GE(emitter.reconnects(), 1u);

  ASSERT_TRUE(daemonB->waitFinished(10000ms)) << daemonB->streamError();
  EXPECT_EQ(daemonB->renderReport(), ref);
  // At-least-once accounting: everything lost in the gap was replayed, and
  // everything already checkpointed was deduplicated, never re-analyzed.
  const auto sessions = daemonB->sessionSnapshots();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_TRUE(sessions[0].finished);
  daemonB->stop();
  std::remove(snap.c_str());
}

TEST(NetFleetE2E, CheckpointNowAndRestoreAfterFinishServeTheVerdict) {
  // A session that FINISHED before the daemon died: the restore must come
  // back finished with the same report — the fleet keeps serving verdicts
  // across restarts, not just mid-flight state.
  const auto c = xyzComputation();
  const char* spec = program::corpus::xyzProperty();
  const std::vector<std::string> tracked{"x", "y", "z"};
  const std::string ref = referenceReport(c, spec, tracked);
  const std::string snap =
      ::testing::TempDir() + "mpx_fleet_e2e_finished.snapshot";
  std::remove(snap.c_str());

  DaemonOptions opts = quietDaemon();
  opts.checkpointPath = snap;
  {
    ObserverDaemon daemon(opts);
    ASSERT_TRUE(daemon.start());
    SocketEmitter emitter(emitterTo(
        daemon.port(), tenantHandshake(c, spec, tracked, "tenant-v", 9)));
    for (const auto& m : messagesInOrder(c.graph)) emitter.onMessage(m);
    emitter.close();
    ASSERT_TRUE(daemon.waitFinished(10000ms)) << daemon.streamError();
    // Finishing triggers a checkpoint on its own; checkpointNow() must
    // also succeed and bump the counter.
    ASSERT_TRUE(eventually([&] { return daemon.checkpointsWritten() >= 1; }));
    EXPECT_TRUE(daemon.checkpointNow());
    daemon.stop();
  }
  {
    ObserverDaemon restored(opts);
    ASSERT_TRUE(restored.start());
    EXPECT_EQ(restored.sessionsRestored(), 1u);
    EXPECT_TRUE(restored.finished());
    EXPECT_EQ(restored.renderReport(), ref);
    restored.stop();
  }
  std::remove(snap.c_str());
}

TEST(NetFleetE2E, PerTenantCapShedsOnlyTheFloodingTenant) {
  // maxConnsPerTenant = 1: tenant-flood's second concurrent connection is
  // rejected at handshake time, while tenant-calm sails through and
  // finishes normally.
  const auto c = xyzComputation();
  const char* spec = program::corpus::xyzProperty();
  const std::vector<std::string> tracked{"x", "y", "z"};

  DaemonOptions opts = quietDaemon();
  opts.maxConnsPerTenant = 1;
  ObserverDaemon daemon(opts);
  ASSERT_TRUE(daemon.start());

  const auto msgs = messagesInOrder(c.graph);
  // First connection of tenant-flood: handshakes, stays open (no close).
  Handshake flood1 = tenantHandshake(c, spec, tracked, "tenant-flood", 1);
  Socket hold = Socket::connectTo("127.0.0.1", daemon.port());
  ASSERT_TRUE(hold.valid());
  {
    std::vector<std::uint8_t> bytes;
    appendFrame(bytes, FrameType::kHandshake, encodeHandshake(flood1));
    ASSERT_TRUE(hold.sendAll(bytes.data(), bytes.size()));
  }
  ASSERT_TRUE(eventually([&] { return daemon.sessionCount() == 1; }));

  // Second connection of the same tenant (even for a DIFFERENT trace):
  // over the cap, shed.
  {
    Handshake flood2 = tenantHandshake(c, spec, tracked, "tenant-flood", 2);
    Socket s = Socket::connectTo("127.0.0.1", daemon.port());
    ASSERT_TRUE(s.valid());
    std::vector<std::uint8_t> bytes;
    appendFrame(bytes, FrameType::kHandshake, encodeHandshake(flood2));
    ASSERT_TRUE(s.sendAll(bytes.data(), bytes.size()));
    s.shutdownWrite();
  }
  ASSERT_TRUE(eventually([&] { return daemon.connectionsShed() >= 1; }));
  EXPECT_EQ(daemon.sessionCount(), 1u);  // the shed handshake built nothing

  // A different tenant is unaffected by the flood.
  {
    SocketEmitter calm(emitterTo(
        daemon.port(), tenantHandshake(c, spec, tracked, "tenant-calm", 3)));
    for (const auto& m : msgs) calm.onMessage(m);
    calm.close();
    EXPECT_EQ(calm.droppedMessages(), 0u);
  }
  ASSERT_TRUE(eventually([&] {
    for (const auto& s : daemon.sessionSnapshots()) {
      if (s.tenant == "tenant-calm" && s.finished) return true;
    }
    return false;
  }));

  // Once the flood's first connection goes away, the tenant has headroom
  // again and a retry succeeds.
  hold.close();
  ASSERT_TRUE(eventually([&] { return daemon.connectionsAborted() >= 1; }));
  {
    SocketEmitter retry(emitterTo(
        daemon.port(), tenantHandshake(c, spec, tracked, "tenant-flood", 2)));
    for (const auto& m : msgs) retry.onMessage(m);
    retry.close();
    EXPECT_EQ(retry.droppedMessages(), 0u);
  }
  ASSERT_TRUE(eventually([&] {
    for (const auto& s : daemon.sessionSnapshots()) {
      if (s.tenant == "tenant-flood" && s.traceId == 2 && s.finished) {
        return true;
      }
    }
    return false;
  }));
  daemon.stop();
}

TEST(NetFleetE2E, RendezvousRankingIsStablePerTraceAndSpreadsTraces) {
  // The emitter's fleet ranking: deterministic for one trace id (sticky
  // routing), and different trace ids must not all pick the same node
  // (load actually spreads).  Pure ranking check — no sockets involved;
  // the emitters immediately fail their connects and are closed.
  const std::vector<Endpoint> fleet{
      {"127.0.0.1", 50001}, {"127.0.0.1", 50002}, {"127.0.0.1", 50003}};
  trace::VarTable vars;
  vars.intern("x", 0);

  const auto primaryFor = [&](std::uint64_t traceId) {
    EmitterOptions o;
    o.endpoints = fleet;
    o.handshake = makeHandshake(1, "", {"x"}, vars);
    o.handshake.tenant = "t";
    o.handshake.traceId = traceId;
    o.maxReconnectAttempts = 1;
    o.reconnectBase = 1ms;
    o.reconnectMax = 1ms;
    SocketEmitter e(o);
    const std::uint16_t port = e.primaryEndpoint().port;
    e.close();
    return port;
  };

  std::uint16_t first = primaryFor(77);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(primaryFor(77), first) << "routing must be sticky per trace";
  }
  bool spread = false;
  for (std::uint64_t t = 1; t <= 16 && !spread; ++t) {
    spread = primaryFor(t) != first;
  }
  EXPECT_TRUE(spread) << "16 traces all rendezvous-hashed to one node";
}

}  // namespace
}  // namespace mpx::net
