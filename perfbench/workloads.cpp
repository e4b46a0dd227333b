// Seeded workload generation and the in-process reference analysis.
//
// Every input is a pure function of (workload, seed): the generator draws
// from one std::mt19937_64 and the program receives only the generated
// events, so lattice sizes, message counts and violation counts repeat
// exactly for a seed.
#include <algorithm>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "analysis/report.hpp"
#include "analysis/session.hpp"
#include "bench.hpp"
#include "core/instrumentor.hpp"
#include "core/relevance.hpp"
#include "trace/channel.hpp"

namespace perfbench {
namespace {

using mpx::trace::Event;
using mpx::trace::EventKind;

/// Appends one event of thread `t`, numbering it in program and global
/// order.
struct EventWriter {
  Program& p;
  std::vector<mpx::LocalSeq> local;

  explicit EventWriter(Program& prog)
      : p(prog), local(prog.threads, 0) {}

  void add(EventKind kind, mpx::ThreadId t, mpx::VarId var,
           mpx::Value value = 0) {
    Event e;
    e.kind = kind;
    e.thread = t;
    e.var = var;
    e.value = value;
    e.localSeq = ++local[t];
    e.globalSeq = p.events.size() + 1;
    p.events.push_back(e);
  }
};

/// The long_trace / many_sessions property: a write of 1000 must directly
/// follow a small value.  The generator writes 1000 only where it plants a
/// violation, right after a 500.
/// wide_lattice schedule: kWideRounds rounds in which each of the four
/// threads writes kWidePerThread times, one of them to the shared variable
/// (a third of all writes).  About 150k lattice nodes; the count varies by
/// about 2% across seeds.
constexpr std::size_t kWideRounds = 333;
constexpr std::size_t kWidePerThread = 3;
/// A lag sample every three events: at least 1000 per iteration.
constexpr std::size_t kWideLagSample = 3;

constexpr const char* kHotLockSpec = "x = 1000 -> prev (x < 100)";

/// Threads take turns (seeded) writing x inside one lock: every relevant
/// event is ordered, so the lattice is a chain with one level per message.
/// With `violate`, one write of 1000 after a 500 is planted in the middle
/// third.
Program hotLockProgram(std::mt19937_64& rng, std::uint32_t threads,
                       std::size_t writes, bool violate) {
  Program p;
  p.threads = threads;
  const mpx::VarId x = p.vars.intern("x", 0);
  const mpx::VarId lock = p.vars.intern("L", 0, mpx::trace::VarRole::kLock);
  p.tracked = {"x"};
  p.specs = {kHotLockSpec};
  p.events.reserve(writes * 3);
  std::uniform_int_distribution<std::uint32_t> pickThread(0, threads - 1);
  std::uniform_int_distribution<mpx::Value> pickValue(0, 899);
  std::size_t plant = writes;  // index of the 1000; none by default
  if (violate) {
    std::uniform_int_distribution<std::size_t> pickPlant(writes / 3,
                                                         2 * writes / 3);
    plant = pickPlant(rng);
  }
  EventWriter w(p);
  for (std::size_t i = 0; i < writes; ++i) {
    const mpx::ThreadId t = pickThread(rng);
    mpx::Value v = pickValue(rng);
    if (i + 1 == plant) v = 500;
    if (i == plant) v = 1000;
    w.add(EventKind::kLockAcquire, t, lock);
    w.add(EventKind::kWrite, t, x, v);
    w.add(EventKind::kLockRelease, t, lock);
  }
  return p;
}

Workload longTrace(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Workload w;
  w.name = "long_trace";
  w.programs.push_back(hotLockProgram(rng, 2, 16000, /*violate=*/true));
  w.programs.back().tenant = "long";
  w.programs.back().traceId = 1;
  return w;
}

/// Four threads write their own variable; a third of the writes go to one
/// shared variable.  Own-variable writes are mutually concurrent, so the
/// lattice is wide; the shared writes keep the threads in step.  The
/// schedule is drawn round by round, in a seeded order, so no thread drifts
/// far ahead and the lattice size barely depends on the seed.
Workload wideLattice(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Program p;
  p.tenant = "wide";
  p.traceId = 1;
  p.threads = 4;
  std::vector<mpx::VarId> own;
  for (std::uint32_t t = 0; t < p.threads; ++t) {
    const std::string name = "v" + std::to_string(t);
    own.push_back(p.vars.intern(name, 0));
    p.tracked.push_back(name);
  }
  const mpx::VarId shared = p.vars.intern("s", 0);
  p.tracked.push_back("s");
  p.specs = {
      "[*] (s <= 4)",
      "v0 > 0 -> once (s = 1)",
      // Violated at far more than LatticeOptions::maxViolations cuts for
      // every seed, so the violation count is always that cap.
      "(v1 - v2 < 3) && (v2 - v1 < 3)",
  };
  std::vector<mpx::Value> count(p.threads, 0);
  EventWriter w(p);
  std::vector<std::pair<mpx::ThreadId, bool>> round;
  for (std::size_t r = 0; r < kWideRounds; ++r) {
    round.clear();
    for (mpx::ThreadId t = 0; t < p.threads; ++t) {
      for (std::size_t i = 0; i < kWidePerThread; ++i) {
        round.emplace_back(t, /*toShared=*/i == 0);
      }
    }
    std::shuffle(round.begin(), round.end(), rng);
    for (const auto& [t, toShared] : round) {
      if (toShared) {
        w.add(EventKind::kWrite, t, shared, static_cast<mpx::Value>(t + 1));
      } else {
        w.add(EventKind::kWrite, t, own[t], ++count[t]);
      }
    }
  }
  Workload wl;
  wl.name = "wide_lattice";
  wl.programs.push_back(std::move(p));
  wl.batchEvents = 33;
  wl.lagSampleEvents = kWideLagSample;
  return wl;
}

/// Short 16-thread hot-lock sessions over 16 tenants, two emitters per
/// wave.  Half the sessions (seeded) carry a violation.
Workload manySessions(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Workload w;
  w.name = "many_sessions";
  // Sessions per daemon.  The daemon keeps every finished session, and its
  // per-frame work, like the benchmark's sessionSnapshots() poll, grows
  // with their number; at 128 per daemon the run-to-run spread of the
  // latency figures was 20-40%, at 32 it is a few percent.
  constexpr std::size_t kSessions = 32;
  constexpr std::uint32_t kTenants = 16;
  std::bernoulli_distribution violate(0.5);
  std::uniform_int_distribution<std::size_t> pickWrites(256, 384);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::size_t writes = pickWrites(rng);
    w.programs.push_back(hotLockProgram(rng, 16, writes, violate(rng)));
    w.programs.back().tenant = "tenant" + std::to_string(s % kTenants);
    w.programs.back().traceId = s + 1;
  }
  w.concurrent = 2;
  w.waveDeadline = std::chrono::milliseconds(10000);
  return w;
}

}  // namespace

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "long_trace") {
    w = longTrace(seed);
  } else if (name == "wide_lattice") {
    w = wideLattice(seed);
  } else if (name == "many_sessions") {
    w = manySessions(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // The set-up probe: the first program up to its first relevant event.
  const Program& first = w.programs.front();
  const std::unordered_set<mpx::VarId> tracked = trackedIds(first);
  w.probe = first;
  const auto relevant = std::find_if(
      first.events.begin(), first.events.end(), [&](const Event& e) {
        return mpx::trace::isWriteLike(e.kind) && tracked.contains(e.var);
      });
  w.probe.events.assign(first.events.begin(),
                        relevant == first.events.end() ? relevant
                                                       : relevant + 1);
  return w;
}

std::string sessionReportBody(
    const std::string& report,
    const std::vector<mpx::observer::AnalysisReport>& plugins) {
  std::string body = report;
  if (!plugins.empty()) {
    body += '\n';
    body += mpx::analysis::renderAnalysisReports(plugins);
  }
  return body;
}

std::unordered_set<mpx::VarId> trackedIds(const Program& p) {
  std::unordered_set<mpx::VarId> ids;
  for (const std::string& var : p.tracked) ids.insert(p.vars.id(var));
  return ids;
}

Reference computeReference(const Program& p) {
  mpx::trace::CollectingSink sink;
  mpx::core::Instrumentor instr(
      mpx::core::RelevancePolicy::writesOf(trackedIds(p)), sink);
  instr.reserve(p.threads, p.vars.size());
  for (const Event& e : p.events) instr.onEvent(e);

  mpx::analysis::AnalyzerSession::Config cfg;
  cfg.threads = p.threads;
  cfg.specs = p.specs;
  cfg.handshakeSpecs = p.specs;
  cfg.tracked = p.tracked;
  cfg.vars = p.vars;
  mpx::analysis::AnalyzerSession session(std::move(cfg));
  for (const mpx::trace::Message& m : sink.messages()) {
    const char* error = nullptr;
    if (session.ingest(m, &error) !=
        mpx::analysis::AnalyzerSession::Ingest::kIngested) {
      throw std::runtime_error(std::string("reference ingest failed: ") +
                               (error != nullptr ? error : "duplicate"));
    }
  }
  session.noteStreamEnd();
  if (!session.finished() || !session.streamError().empty()) {
    throw std::runtime_error("reference session did not finish");
  }
  Reference r;
  r.messages = sink.messages();
  r.report = sessionReportBody(session.renderReport(),
                               session.analysisReports());
  r.stats = session.stats();
  r.violations = session.violations().size();
  return r;
}

}  // namespace perfbench
