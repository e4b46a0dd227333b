// mpx_cli — command-line predictive analysis over the built-in corpus.
//
//   mpx_cli list
//   mpx_cli analyze <program> [--spec "<ptLTL>"] [--property "<ptLTL>"]...
//           [--seed N] [--schedule greedy|roundrobin|random|observed]
//           [--delivery fifo|shuffle|delay|reverse] [--lattice] [--dot] [--json]
//   mpx_cli explore <program> [--spec "<ptLTL>"]      # ground truth
//
// `--property` is repeatable: all K properties are checked in ONE lattice
// pass (each a SpecAnalysis plugin on the shared engine bus) instead of K
// independent analyses.
//
// Examples:
//   mpx_cli analyze landing --schedule observed --lattice
//   mpx_cli analyze xyz --seed 7
//   mpx_cli analyze naive-mutex --spec "!(c0 = 1 && c1 = 1)"
//   mpx_cli analyze xyz --property "y = 1 -> [.](x = 0)" --property "z != 2"
//   mpx_cli analyze peterson --stats --trace-out peterson.trace.json
//   mpx_cli explore landing
//
// Global flags (any command):
//   --stats               dump the telemetry registry (Prometheus text) at exit
//   --trace-out <file>    write a Chrome trace-event JSON (load in Perfetto)
//   --telemetry-sample N  time every N-th Algorithm A event (rounded up to a
//                         power of two; 0 disables latency sampling; default
//                         64; env MPX_TELEMETRY_SAMPLE is the same knob)
//
// Any other argument, or a value flag without its value, prints the usage
// text and exits 2.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/atomicity_analysis.hpp"
#include "analysis/engine.hpp"
#include "analysis/mhp_prefilter.hpp"
#include "analysis/predictive_analyzer.hpp"
#include "analysis/campaign.hpp"
#include "analysis/report.hpp"
#include "program/corpus.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"

using namespace mpx;
namespace corpus = program::corpus;

namespace {

struct Entry {
  std::string description;
  program::Program (*make)();
  const char* (*defaultSpec)();
  std::vector<ThreadId> (*observedSchedule)();
};

program::Program makeLanding() { return corpus::landingController(); }
program::Program makeXyz() { return corpus::xyzProgram(); }
program::Program makeBank() { return corpus::bankAccountRacy(); }
program::Program makePeterson() { return corpus::peterson(); }
program::Program makeNaiveMutex() { return corpus::mutualExclusionNaive(); }
program::Program makeReadersWriter() { return corpus::readersWriter(); }
program::Program makeCas() { return corpus::casCounter(); }
program::Program makeAtomicityDemo() { return corpus::atomicityDemo(); }
program::Program makeLockDisciplined() { return corpus::lockDisciplined(); }
const char* casSpec() { return "counter >= 0"; }
const char* bankSpec() { return "balance >= 0"; }
const char* atomicityDemoSpec() { return "acct <= 100"; }
const char* lockDisciplinedSpec() { return "data >= 0"; }

const std::map<std::string, Entry>& registry() {
  static const std::map<std::string, Entry> r = {
      {"landing",
       {"paper Fig. 1 flight controller", &makeLanding,
        &corpus::landingProperty, &corpus::landingObservedSchedule}},
      {"xyz",
       {"paper Fig. 6 x/y/z program", &makeXyz, &corpus::xyzProperty,
        &corpus::xyzObservedSchedule}},
      {"bank",
       {"racy bank account (lost update)", &makeBank, &bankSpec, nullptr}},
      {"peterson",
       {"Peterson's mutual exclusion", &makePeterson,
        &corpus::mutualExclusionProperty, nullptr}},
      {"naive-mutex",
       {"unsynchronized critical sections", &makeNaiveMutex,
        &corpus::mutualExclusionProperty, nullptr}},
      {"readers-writer",
       {"readers/writer via mutex + condvar", &makeReadersWriter,
        &corpus::readersWriterProperty, nullptr}},
      {"cas-counter",
       {"lock-free CAS counter", &makeCas, &casSpec, nullptr}},
      {"atomicity-demo",
       {"annotated atomic regions, --atomicity finds the witness cycle",
        &makeAtomicityDemo, &atomicityDemoSpec,
        &corpus::atomicityDemoViolatingSchedule}},
      {"lock-disciplined",
       {"lock-disciplined pipeline, --mhp-prefilter prunes the aux suffix",
        &makeLockDisciplined, &lockDisciplinedSpec, nullptr}},
  };
  return r;
}

int listPrograms() {
  std::printf("available programs:\n");
  for (const auto& [name, entry] : registry()) {
    std::printf("  %-12s %s   (default spec: %s)\n", name.c_str(),
                entry.description.c_str(), entry.defaultSpec());
  }
  return 0;
}

std::optional<std::string> argValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::string(argv[i + 1]);
  }
  return std::nullopt;
}

bool hasFlag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Every occurrence of a repeatable flag's value, in command-line order.
std::vector<std::string> argValues(int argc, char** argv, const char* flag) {
  std::vector<std::string> values;
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) values.emplace_back(argv[i + 1]);
  }
  return values;
}

// The flags read here are listed in commands(), which validates them.
int analyze(const std::string& name, int argc, char** argv) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::fprintf(stderr, "unknown program '%s' (try: mpx_cli list)\n",
                 name.c_str());
    return 2;
  }
  const Entry& entry = it->second;
  const program::Program prog = entry.make();

  analysis::AnalyzerConfig config;
  config.spec = argValue(argc, argv, "--spec").value_or(entry.defaultSpec());
  const std::string delivery =
      argValue(argc, argv, "--delivery").value_or("fifo");
  if (delivery == "shuffle") config.delivery = trace::DeliveryPolicy::kShuffle;
  else if (delivery == "delay")
    config.delivery = trace::DeliveryPolicy::kBoundedDelay;
  else if (delivery == "reverse")
    config.delivery = trace::DeliveryPolicy::kReverse;
  const bool wantLattice = hasFlag(argc, argv, "--lattice");
  // --memory-budget BYTES / --max-frontier N: bound the accounted working
  // set / per-level width.  When either bound trips, the engine degrades
  // (sampled frontier, then observed-path-only) instead of crashing, the
  // report is stamped BOUNDED, and a clean run exits 3 instead of 0.
  config.lattice.memoryBudgetBytes = std::stoull(
      argValue(argc, argv, "--memory-budget").value_or("0"));
  config.lattice.maxFrontier =
      std::stoull(argValue(argc, argv, "--max-frontier").value_or("0"));

  const std::uint64_t seed =
      std::stoull(argValue(argc, argv, "--seed").value_or("0"));
  const std::string scheduleKind =
      argValue(argc, argv, "--schedule").value_or("random");

  std::unique_ptr<program::Scheduler> sched;
  if (scheduleKind == "greedy") {
    sched = std::make_unique<program::GreedyScheduler>();
  } else if (scheduleKind == "roundrobin") {
    sched = std::make_unique<program::RoundRobinScheduler>(1);
  } else if (scheduleKind == "observed") {
    if (entry.observedSchedule == nullptr) {
      std::fprintf(stderr, "no canonical observed schedule for '%s'\n",
                   name.c_str());
      return 2;
    }
    sched = std::make_unique<program::FixedScheduler>(entry.observedSchedule());
  } else {
    sched = std::make_unique<program::RandomScheduler>(seed);
  }

  // Repeatable --property: K properties, ONE instrumented execution, ONE
  // lattice pass (each property a SpecAnalysis plugin on the engine bus).
  // --atomicity / --mhp-prefilter add the ISSUE-10 analysis plugins to the
  // same pass (and alone select the engine path with zero specs);
  // --mhp-prefilter additionally turns on the engine's union-space pruning.
  const std::vector<std::string> props = argValues(argc, argv, "--property");
  const bool wantAtomicity = hasFlag(argc, argv, "--atomicity");
  const bool wantMhp = hasFlag(argc, argv, "--mhp-prefilter");
  if (!props.empty() || wantAtomicity || wantMhp) {
    analysis::EngineConfig ec;
    ec.specs = props;
    // Repeatable --track: variables tracked beyond the specs' union —
    // the prefilter's prunable candidates (spec variables never prune).
    ec.extraTrackedVars = argValues(argc, argv, "--track");
    ec.delivery = config.delivery;
    ec.lattice = config.lattice;
    ec.mhpPrefilter = wantMhp;
    analysis::Engine engine(prog, ec);

    std::vector<std::unique_ptr<observer::Analysis>> extraOwned;
    if (wantMhp) {
      extraOwned.push_back(
          std::make_unique<analysis::MhpPrefilter>(&prog.vars));
    }
    if (wantAtomicity) {
      extraOwned.push_back(
          std::make_unique<analysis::AtomicityAnalysis>(&prog.vars));
    }
    std::vector<observer::Analysis*> extras;
    for (const auto& p : extraOwned) extras.push_back(p.get());

    std::printf("program:  %s — %s\n", name.c_str(),
                entry.description.c_str());
    std::printf("properties (%zu, one pass):\n", props.size());
    for (const auto& p : props) std::printf("  %s\n", p.c_str());
    std::printf("tracked variables:");
    for (const auto& v : engine.trackedVariables()) {
      std::printf(" %s", v.c_str());
    }
    std::printf("\nschedule: %s (seed %llu), delivery: %s\n\n",
                scheduleKind.c_str(), static_cast<unsigned long long>(seed),
                delivery.c_str());

    program::Executor ex(prog, *sched);
    const analysis::EngineResult r = engine.run(ex.run(), extras);
    std::printf("events instrumented: %llu, messages to observer: %llu\n",
                static_cast<unsigned long long>(r.eventsInstrumented),
                static_cast<unsigned long long>(r.messagesEmitted));
    std::printf("lattice: %zu nodes across %zu levels, %llu consistent runs\n",
                r.latticeStats.totalNodes, r.latticeStats.levels,
                static_cast<unsigned long long>(r.latticeStats.pathCount));
    if (wantMhp) {
      std::printf("union variables expanded: %zu of %zu",
                  r.unionVarsExpanded, engine.trackedVariables().size());
      if (!r.prunedVars.empty()) {
        std::printf(" (pruned:");
        for (const auto& v : r.prunedVars) std::printf(" %s", v.c_str());
        std::printf(")");
      }
      std::printf("\n");
    }
    std::printf("\n");
    std::printf("%s", analysis::renderAnalysisReports(r.reports).c_str());
    if (r.latticeStats.bounded()) {
      std::printf("coverage: BOUNDED(%s, dropped_nodes=%llu) — degraded to "
                  "'%s' at level %llu\n",
                  observer::toString(r.latticeStats.boundReason),
                  static_cast<unsigned long long>(
                      r.latticeStats.droppedNodes),
                  observer::toString(r.latticeStats.degradation),
                  static_cast<unsigned long long>(
                      r.latticeStats.degradedAtLevel));
    }
    if (hasFlag(argc, argv, "--dot")) {
      std::printf("=== causality graph (graphviz) ===\n%s",
                  r.causality.renderDot(prog.vars).c_str());
    }
    return analysis::exitCodeFor(true, r.totalFindings(),
                                 r.latticeStats.bounded());
  }

  analysis::PredictiveAnalyzer analyzer(prog, config);
  std::printf("program:  %s — %s\n", name.c_str(), entry.description.c_str());
  std::printf("property: %s\n", config.spec.c_str());
  std::printf("relevant variables:");
  for (const auto& v : analyzer.relevantVariables()) {
    std::printf(" %s", v.c_str());
  }
  std::printf("\nschedule: %s (seed %llu), delivery: %s\n\n",
              scheduleKind.c_str(), static_cast<unsigned long long>(seed),
              delivery.c_str());

  const analysis::AnalysisResult r = analyzer.analyze(*sched);
  std::printf("events instrumented: %llu, messages to observer: %llu\n",
              static_cast<unsigned long long>(r.eventsInstrumented),
              static_cast<unsigned long long>(r.messagesEmitted));
  std::printf("observed run violates:  %s\n",
              r.observedRunViolates() ? "YES" : "no");
  std::printf("lattice: %zu nodes across %zu levels, %llu consistent runs\n",
              r.latticeStats.totalNodes, r.latticeStats.levels,
              static_cast<unsigned long long>(r.latticeStats.pathCount));
  std::printf("predicted violations:   %zu\n\n",
              r.predictedViolations.size());
  for (const auto& v : r.predictedViolations) {
    std::printf("%s\n", r.describe(v).c_str());
  }

  if (wantLattice) {
    observer::LatticeOptions full = config.lattice;
    full.retention = observer::Retention::kFull;
    observer::ComputationLattice lattice(r.causality, r.space, full);
    lattice.build();
    std::printf("=== lattice ===\n%s", lattice.render().c_str());
  }
  if (hasFlag(argc, argv, "--dot")) {
    std::printf("=== causality graph (graphviz) ===\n%s",
                r.causality.renderDot(prog.vars).c_str());
  }
  if (hasFlag(argc, argv, "--json")) {
    analysis::ReportOptions ropts;
    ropts.includeMetrics = hasFlag(argc, argv, "--stats");
    std::printf("%s\n", analysis::toJson(r, ropts).c_str());
  }
  if (r.latticeStats.bounded()) {
    std::printf("coverage: BOUNDED(%s, dropped_nodes=%llu)\n",
                observer::toString(r.latticeStats.boundReason),
                static_cast<unsigned long long>(
                    r.latticeStats.droppedNodes));
  }
  return analysis::exitCodeFor(true, r.predictedViolations.size(),
                               r.latticeStats.bounded());
}

// The flags read here are listed in commands(), which validates them.
int campaign(const std::string& name, int argc, char** argv) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::fprintf(stderr, "unknown program '%s'\n", name.c_str());
    return 2;
  }
  const program::Program prog = it->second.make();
  analysis::CampaignOptions opts;
  opts.trials =
      std::stoull(argValue(argc, argv, "--trials").value_or("100"));
  opts.withGroundTruth = hasFlag(argc, argv, "--ground-truth");

  // Repeatable --property: every trial checks all K properties in one pass.
  const std::vector<std::string> props = argValues(argc, argv, "--property");
  if (!props.empty()) {
    const auto r = analysis::runCampaign(prog, props, opts);
    std::printf("program: %s\n%s\n", name.c_str(), r.summary().c_str());
    std::size_t predicted = 0;
    for (const std::size_t n : r.predictedDetections) predicted += n;
    return analysis::exitCodeFor(true, predicted);
  }

  const std::string spec =
      argValue(argc, argv, "--spec").value_or(it->second.defaultSpec());
  const auto r = analysis::runCampaign(prog, spec, opts);
  std::printf("program: %s, property: %s\n%s\n", name.c_str(), spec.c_str(),
              r.summary().c_str());
  return analysis::exitCodeFor(true, r.predictedDetections);
}

// The flags read here are listed in commands(), which validates them.
int explore(const std::string& name, int argc, char** argv) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::fprintf(stderr, "unknown program '%s'\n", name.c_str());
    return 2;
  }
  const program::Program prog = it->second.make();
  const std::string spec =
      argValue(argc, argv, "--spec").value_or(it->second.defaultSpec());
  const auto truth = analysis::groundTruth(prog, spec);
  std::printf("program: %s, property: %s\n", name.c_str(), spec.c_str());
  std::printf("schedules explored: %zu%s\n", truth.totalExecutions,
              truth.truncated ? " (truncated)" : "");
  std::printf("violating: %zu, deadlocked: %zu\n", truth.violatingExecutions,
              truth.deadlockedExecutions);
  return truth.violatingExecutions > 0 ? 1 : 0;
}

/// Post-run observability output: --stats dumps the registry as Prometheus
/// text on stdout; --trace-out writes the recorded spans as Chrome
/// trace-event JSON.  Returns the command's exit code unchanged unless the
/// trace file cannot be written.
int finish(int rc, int argc, char** argv) {
  const auto traceOut = argValue(argc, argv, "--trace-out");
  if (traceOut) {
    std::ofstream out(*traceOut);
    if (!out) {
      std::fprintf(stderr, "cannot write trace file '%s'\n",
                   traceOut->c_str());
      return 2;
    }
    out << telemetry::TraceRecorder::global().toChromeTraceJson();
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 telemetry::TraceRecorder::global().spanCount(),
                 traceOut->c_str());
  }
  if (hasFlag(argc, argv, "--stats")) {
    std::printf("=== telemetry ===\n%s",
                telemetry::toPrometheusText(
                    telemetry::registry().snapshot())
                    .c_str());
  }
  return rc;
}

/// One flag a command accepts: `value` names its argument (nullptr for a
/// switch) and `repeatable` marks a flag that may be given more than once.
struct Flag {
  const char* name;
  const char* value;
  bool repeatable;
};

struct Command {
  const char* name;
  const char* operand;  ///< nullptr when the command takes no program
  std::vector<Flag> flags;
};

/// Every command and the flags it accepts; usage() prints this table and
/// flagsValid() checks arguments against it, so a new flag is added here
/// (and read where the command parses it).  Command nullptr: the global
/// flags, accepted by every command.
const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"list", nullptr, {}},
      {"analyze",
       "<program>",
       {{"--spec", "S", false},
        {"--property", "S", true},
        {"--seed", "N", false},
        {"--schedule", "greedy|roundrobin|random|observed", false},
        {"--delivery", "fifo|shuffle|delay|reverse", false},
        {"--lattice", nullptr, false},
        {"--dot", nullptr, false},
        {"--json", nullptr, false},
        {"--memory-budget", "BYTES", false},
        {"--max-frontier", "N", false},
        {"--atomicity", nullptr, false},
        {"--mhp-prefilter", nullptr, false},
        {"--track", "VAR", true}}},
      {"explore", "<program>", {{"--spec", "S", false}}},
      {"campaign",
       "<program>",
       {{"--spec", "S", false},
        {"--property", "S", true},
        {"--trials", "N", false},
        {"--ground-truth", nullptr, false}}},
      {nullptr,
       nullptr,
       {{"--stats", nullptr, false},
        {"--trace-out", "<file>.json", false},
        {"--telemetry-sample", "N", false}}},
  };
  return table;
}

/// Prints the usage text; returns the usage-error exit code.
int usage() {
  std::string text;
  for (const Command& c : commands()) {
    std::string line = c.name == nullptr ? "global flags:"
                       : text.empty()    ? "usage: mpx_cli "
                                         : "       mpx_cli ";
    if (c.name != nullptr) line += c.name;
    if (c.operand != nullptr) line += std::string(" ") + c.operand;
    for (const Flag& f : c.flags) {
      std::string item = std::string("[") + f.name;
      if (f.value != nullptr) item += std::string(" ") + f.value;
      item += f.repeatable ? "]..." : "]";
      if (line.size() + 1 + item.size() > 78) {
        text += line + "\n";
        line = "              ";
      }
      line += " " + item;
    }
    text += line + "\n";
  }
  std::fputs(text.c_str(), stderr);
  return 2;
}

/// The table entry of `flag` among the global flags and those of `cmd`.
const Flag* findFlag(const std::string& cmd, const char* flag) {
  for (const Command& c : commands()) {
    if (c.name != nullptr && cmd != c.name) continue;
    for (const Flag& f : c.flags) {
      if (std::strcmp(f.name, flag) == 0) return &f;
    }
  }
  return nullptr;
}

/// True when every argument from argv[first] on is a flag `cmd` accepts
/// (its own or a global one), each value flag followed by its value.
/// Otherwise names the offending argument on stderr and returns false.
bool flagsValid(const std::string& cmd, int first, int argc, char** argv) {
  for (int i = first; i < argc; ++i) {
    const Flag* f = findFlag(cmd, argv[i]);
    if (f == nullptr || (f->value != nullptr && i + 1 >= argc)) {
      std::fprintf(stderr, "mpx_cli %s: unexpected argument '%s'\n",
                   cmd.c_str(), argv[i]);
      return false;
    }
    if (f->value != nullptr) ++i;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const bool takesProgram =
      cmd == "analyze" || cmd == "explore" || cmd == "campaign";
  if ((cmd == "list" || (takesProgram && argc >= 3)) &&
      !flagsValid(cmd, takesProgram ? 3 : 2, argc, argv)) {
    return usage();
  }
  if (argValue(argc, argv, "--trace-out")) {
    telemetry::TraceRecorder::global().setEnabled(true);
  }
  if (const auto sample = argValue(argc, argv, "--telemetry-sample")) {
    telemetry::setLatencySampleEvery(std::stoull(*sample));
  }
  if (cmd == "list") return listPrograms();
  if (cmd == "analyze" && argc >= 3) {
    return finish(analyze(argv[2], argc, argv), argc, argv);
  }
  if (cmd == "explore" && argc >= 3) {
    return finish(explore(argv[2], argc, argv), argc, argv);
  }
  if (cmd == "campaign" && argc >= 3) {
    return finish(campaign(argv[2], argc, argv), argc, argv);
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
