// mpx_observerd — the standalone observer process of the paper's Fig. 4
// deployment.  An instrumented program (or several channels of one) connects
// with a SocketEmitter and streams its observer-bound messages; this daemon
// feeds them into an OnlineAnalyzer and prints the violation report when the
// trace completes or the daemon is told to shut down.
//
//   mpx_observerd [--port N] [--streams N] [--property SPEC]...
//                 [--analysis NAME]... [--memory-budget BYTES]
//                 [--max-frontier N] [--max-conns N]
//                 [--max-conns-per-tenant N] [--checkpoint PATH]
//                 [--checkpoint-interval LEVELS] [--serve]
//                 [--flight-dump PATH] [--quiet]
//
//   --port N     listen on 127.0.0.1:N (default 0 = ephemeral; the chosen
//                port is printed on startup either way)
//   --streams N  kEndOfTrace frames to await before finalizing (a client
//                spreading its trace over N channels sends one per channel)
//   --property SPEC
//                check SPEC in addition to the properties the client's
//                handshake carries; repeatable — all properties are checked
//                in ONE lattice pass (one SpecAnalysis plugin each)
//   --analysis NAME
//                run a daemon-side analysis plugin in every session;
//                repeatable.  NAME is "atomicity" (conflict-serializability
//                of MPX_ATOMIC_BEGIN/END regions, wire v6) or "mhp"
//                (never-concurrent pair / race-free variable prefilter)
//   --memory-budget BYTES
//                bound the analyzer's accounted working set; over budget it
//                degrades (sampled frontier → observed path only) instead of
//                dying, and new connections are shed while over budget
//   --max-frontier N
//                cap the lattice frontier at N nodes per level (same ladder)
//   --max-conns N
//                admission control: at most N live client connections;
//                further connections are shed with a notice
//   --max-conns-per-tenant N
//                per-tenant admission control: at most N live handshaken
//                connections per tenant (wire v5); one tenant flooding the
//                daemon cannot starve the others
//   --checkpoint PATH
//                epoch checkpoint/restore: restore all analyzer sessions
//                from PATH on startup (if it exists), snapshot them back
//                atomically on SIGTERM/SIGINT and at the --checkpoint-
//                interval cadence
//   --checkpoint-interval LEVELS
//                also snapshot whenever a session's consumption watermark
//                advanced LEVELS levels since its last checkpoint
//                (default 0 = only on shutdown)
//   --serve      keep serving after the expected streams finished (fleet
//                mode: a node analyzes many tenants' traces, each session
//                finishing on its own schedule; stop with SIGTERM)
//   --flight-dump PATH
//                write the flight-recorder ring (recent pipeline events) to
//                PATH as JSON on exit, on the first predicted violation, and
//                from the SIGSEGV/SIGABRT crash handler
//   --quiet      suppress per-connection error logging
//
// While running the daemon answers plain HTTP on its port:
//   GET /                human status page (counters, report, telemetry)
//   GET /healthz         "ok" once the listener is up
//   GET /metrics         Prometheus exposition (mpx_pipeline_* live here)
//   GET /streams         per-stream lag + watermark JSON
//   GET /report          current violation report (text)
//   GET /flightrecorder  flight-recorder ring as JSON, on demand
// SIGTERM/SIGINT print the final report and exit: 0 = finished with no
// violations, 1 = violations predicted, 2 = analysis incomplete or unusable
// input, 3 = finished clean but BOUNDED (the ladder shed runs, so "no
// violation" is not a proof).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "analysis/report.hpp"
#include "net/observerd.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace_span.hpp"

#include <unistd.h>

namespace {

volatile std::sig_atomic_t g_stop = 0;

void onSignal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--streams N] "
               "[--property SPEC]... [--analysis NAME]... "
               "[--memory-budget BYTES] "
               "[--max-frontier N] [--max-conns N] "
               "[--max-conns-per-tenant N] [--checkpoint PATH] "
               "[--checkpoint-interval LEVELS] [--serve] "
               "[--flight-dump PATH] [--quiet]\n",
               argv0);
  std::exit(2);
}

long argValue(int argc, char** argv, int& i, const char* argv0) {
  if (i + 1 >= argc) usage(argv0);
  char* end = nullptr;
  const long v = std::strtol(argv[++i], &end, 10);
  if (end == nullptr || *end != '\0' || v < 0) usage(argv0);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  mpx::net::DaemonOptions opts;
  bool serve = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0) {
      const long v = argValue(argc, argv, i, argv[0]);
      if (v > 65535) usage(argv[0]);
      opts.port = static_cast<std::uint16_t>(v);
    } else if (std::strcmp(argv[i], "--streams") == 0) {
      const long v = argValue(argc, argv, i, argv[0]);
      if (v < 1) usage(argv[0]);
      opts.expectedStreams = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--property") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opts.extraSpecs.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--analysis") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      const std::string name = argv[++i];
      if (name != "atomicity" && name != "mhp") usage(argv[0]);
      opts.analyses.push_back(name);
    } else if (std::strcmp(argv[i], "--memory-budget") == 0) {
      opts.lattice.memoryBudgetBytes =
          static_cast<std::size_t>(argValue(argc, argv, i, argv[0]));
    } else if (std::strcmp(argv[i], "--max-frontier") == 0) {
      opts.lattice.maxFrontier =
          static_cast<std::size_t>(argValue(argc, argv, i, argv[0]));
    } else if (std::strcmp(argv[i], "--max-conns") == 0) {
      opts.maxConnections =
          static_cast<std::size_t>(argValue(argc, argv, i, argv[0]));
    } else if (std::strcmp(argv[i], "--max-conns-per-tenant") == 0) {
      opts.maxConnsPerTenant =
          static_cast<std::size_t>(argValue(argc, argv, i, argv[0]));
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opts.checkpointPath = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-interval") == 0) {
      opts.checkpointIntervalLevels =
          static_cast<std::uint64_t>(argValue(argc, argv, i, argv[0]));
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--flight-dump") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opts.flightDumpPath = argv[++i];
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      opts.logErrors = false;
    } else {
      usage(argv[0]);
    }
  }

  if (!opts.flightDumpPath.empty()) {
    // Crash handler last-resort dump goes to the same file the graceful
    // paths use, so post-mortems always look in one place.
    mpx::telemetry::FlightRecorder::installCrashHandler(
        opts.flightDumpPath.c_str());
  }
  // Tag this process's trace spans so a merged Chrome trace shows the
  // daemon's daemon.frame spans beside the client's emitter.batch spans.
  mpx::telemetry::TraceRecorder::global().setPid(
      static_cast<std::uint32_t>(::getpid()));
  mpx::telemetry::TraceRecorder::global().setProcessName("mpx_observerd");

  mpx::net::ObserverDaemon daemon(opts);
  if (!daemon.start()) {
    std::fprintf(stderr, "mpx_observerd: cannot bind 127.0.0.1:%u\n",
                 static_cast<unsigned>(opts.port));
    return 2;
  }
  std::printf("mpx_observerd: listening on 127.0.0.1:%u (streams=%zu)\n",
              static_cast<unsigned>(daemon.port()), opts.expectedStreams);
  std::fflush(stdout);

  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);

  // Serve until the trace completes or a signal asks for the report now.
  // Fleet mode (--serve) keeps the node alive after the expected streams
  // finish: sessions come and go on their tenants' schedules, so only a
  // signal ends the process.
  while (g_stop == 0 &&
         !daemon.waitFinished(std::chrono::milliseconds(200))) {
    const std::string err = daemon.streamError();
    if (!err.empty()) {
      std::fprintf(stderr, "mpx_observerd: analysis failed: %s\n",
                   err.c_str());
      break;
    }
  }
  while (serve && g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Persist the final epoch before tearing the listener down, so a
  // SIGTERM'd node restarts exactly where it stopped.
  if (!opts.checkpointPath.empty()) daemon.checkpointNow();
  daemon.stop();

  if (!opts.flightDumpPath.empty()) {
    mpx::telemetry::FlightRecorder::global().record(
        mpx::telemetry::FlightEvent::kDump, /*reason=*/0);
    mpx::telemetry::FlightRecorder::global().dumpToFile(
        opts.flightDumpPath.c_str());
  }

  std::fputs(daemon.renderReport().c_str(), stdout);
  const auto reports = daemon.analysisReports();
  if (!reports.empty()) {
    std::fputs("\n", stdout);
    std::fputs(mpx::analysis::renderAnalysisReports(reports).c_str(), stdout);
  }
  return mpx::analysis::exitCodeFor(daemon.finished(),
                                    daemon.violations().size(),
                                    daemon.stats().bounded());
}
