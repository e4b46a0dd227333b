#include "analysis/report.hpp"

#include <sstream>

#include "observer/run_enumerator.hpp"
#include "telemetry/metrics.hpp"

namespace mpx::analysis {

std::string renderViolationReport(const observer::StateSpace& space,
                                  const std::vector<observer::Violation>& vs,
                                  const observer::LatticeStats& stats,
                                  bool finished) {
  std::ostringstream os;
  os << "analysis " << (finished ? "complete" : "INCOMPLETE") << '\n';
  os << "violations: " << vs.size() << '\n';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const observer::Violation& v = vs[i];
    os << "  violation " << (i + 1) << ": cut " << v.cut.toString()
       << ", state <" << v.state.toString(space) << ">, path";
    if (v.path.empty()) {
      os << " (initial state)";
    } else {
      for (const observer::EventRef& ref : v.path) {
        os << " T" << (ref.thread + 1) << '#' << ref.index;
      }
    }
    os << '\n';
  }
  os << "lattice: levels=" << stats.levels << " nodes=" << stats.totalNodes
     << " edges=" << stats.totalEdges << " peakWidth=" << stats.peakLevelWidth
     << " paths=" << stats.pathCount
     << (stats.pathCountSaturated ? " (saturated)" : "")
     << (stats.truncated ? " TRUNCATED" : "")
     << (stats.approximated ? " APPROXIMATED" : "") << '\n';
  // The verdict stamp: SOUND means the lattice was explored exhaustively
  // (every consistent run was analyzed), so both positive and negative
  // verdicts are trustworthy.  BOUNDED means some runs were shed — reported
  // violations still carry genuine witnesses (a subset of the exhaustive
  // set), but the ABSENCE of a violation proves nothing.
  if (!stats.bounded() && finished) {
    os << "verdict: SOUND\n";
  } else {
    const char* reason =
        stats.boundReason != observer::BoundReason::kNone
            ? observer::toString(stats.boundReason)
            : (stats.truncated ? "level-width-cap" : "incomplete");
    os << "verdict: BOUNDED(" << reason
       << ", dropped_nodes=" << stats.droppedNodes << ")\n";
  }
  return os.str();
}

std::string renderAnalysisReports(
    const std::vector<observer::AnalysisReport>& reports) {
  std::ostringstream os;
  std::size_t findings = 0;
  for (const observer::AnalysisReport& r : reports) {
    os << "=== " << r.name << " ===\n" << r.text;
    findings += r.violationCount;
  }
  os << "total findings: " << findings << '\n';
  return os.str();
}

int exitCodeFor(bool usable, std::size_t violationCount) {
  if (!usable) return 2;
  return violationCount > 0 ? 1 : 0;
}

int exitCodeFor(bool usable, std::size_t violationCount, bool bounded) {
  if (!usable) return 2;
  if (violationCount > 0) return 1;
  return bounded ? 3 : 0;
}

std::string jsonEscape(const std::string& s) {
  std::ostringstream os;
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  return os.str();
}

namespace {

/// Tiny structured JSON writer: tracks nesting and comma placement.
class JsonWriter {
 public:
  explicit JsonWriter(int indent) : indent_(indent) {}

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  void key(const std::string& k) {
    comma();
    newline();
    os_ << '"' << jsonEscape(k) << "\":";
    if (indent_ > 0) os_ << ' ';
    pendingValue_ = true;
  }

  void value(const std::string& v) {
    prefix();
    os_ << '"' << jsonEscape(v) << '"';
    post();
  }
  void value(std::int64_t v) {
    prefix();
    os_ << v;
    post();
  }
  void value(std::uint64_t v) {
    prefix();
    os_ << v;
    post();
  }
  void value(bool v) {
    prefix();
    os_ << (v ? "true" : "false");
    post();
  }

  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  void open(char c) {
    prefix();
    os_ << c;
    first_.push_back(true);
  }
  void close(char c) {
    first_.pop_back();
    newline();
    os_ << c;
    post();
  }
  void prefix() {
    if (!pendingValue_) {
      comma();
      newline();
    }
    pendingValue_ = false;
  }
  void post() {
    if (!first_.empty()) first_.back() = false;
  }
  void comma() {
    if (!first_.empty() && !first_.back()) os_ << ',';
  }
  void newline() {
    if (indent_ <= 0 || first_.empty()) return;
    os_ << '\n'
        << std::string(indent_ * first_.size(), ' ');
  }

  std::ostringstream os_;
  std::vector<bool> first_;
  int indent_;
  bool pendingValue_ = false;
};

void writeState(JsonWriter& w, const observer::GlobalState& s,
                const observer::StateSpace& space) {
  w.beginObject();
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    w.key(space.name(i));
    w.value(static_cast<std::int64_t>(s.values[i]));
  }
  w.endObject();
}

void writeViolation(JsonWriter& w, const AnalysisResult& r,
                    const observer::Violation& v, bool counterexamples) {
  w.beginObject();
  w.key("cut");
  w.value(v.cut.toString());
  w.key("state");
  writeState(w, v.state, r.space);
  if (counterexamples && !v.path.empty()) {
    observer::RunEnumerator runs(r.causality, r.space);
    const auto states = runs.statesAlong(v.path);
    w.key("counterexample");
    w.beginArray();
    for (std::size_t i = 0; i < v.path.size(); ++i) {
      const trace::Message& m = r.causality.message(v.path[i]);
      w.beginObject();
      w.key("thread");
      w.value(static_cast<std::uint64_t>(m.event.thread));
      std::string name = "?";
      if (const auto slot = r.space.slotOf(m.event.var)) {
        name = r.space.name(*slot);
      }
      w.key("var");
      w.value(name);
      w.key("value");
      w.value(static_cast<std::int64_t>(m.event.value));
      w.key("clock");
      w.value(m.clock.toString());
      w.key("stateAfter");
      writeState(w, states[i + 1], r.space);
      w.endObject();
    }
    w.endArray();
  }
  w.endObject();
}

void writeMetrics(JsonWriter& w) {
  const telemetry::MetricsSnapshot snap = telemetry::registry().snapshot();
  w.beginObject();
  w.key("counters");
  w.beginObject();
  for (const auto& c : snap.counters) {
    w.key(c.name);
    w.value(c.value);
  }
  w.endObject();
  w.key("gauges");
  w.beginObject();
  for (const auto& g : snap.gauges) {
    w.key(g.name);
    w.value(g.value);
  }
  w.endObject();
  w.key("histograms");
  w.beginObject();
  for (const auto& h : snap.histograms) {
    w.key(h.name);
    w.beginObject();
    w.key("count");
    w.value(h.count);
    w.key("sum");
    w.value(h.sum);
    w.endObject();
  }
  w.endObject();
  w.endObject();
}

}  // namespace

std::string toJson(const AnalysisResult& r, ReportOptions opts) {
  JsonWriter w(opts.indent);
  w.beginObject();

  w.key("observedRunViolates");
  w.value(r.observedRunViolates());
  w.key("predictsViolation");
  w.value(r.predictsViolation());
  w.key("messagesEmitted");
  w.value(static_cast<std::uint64_t>(r.messagesEmitted));
  w.key("eventsInstrumented");
  w.value(static_cast<std::uint64_t>(r.eventsInstrumented));

  w.key("lattice");
  w.beginObject();
  w.key("nodes");
  w.value(static_cast<std::uint64_t>(r.latticeStats.totalNodes));
  w.key("levels");
  w.value(static_cast<std::uint64_t>(r.latticeStats.levels));
  w.key("edges");
  w.value(static_cast<std::uint64_t>(r.latticeStats.totalEdges));
  w.key("runs");
  w.value(static_cast<std::uint64_t>(r.latticeStats.pathCount));
  w.key("peakLiveNodes");
  w.value(static_cast<std::uint64_t>(r.latticeStats.peakLiveNodes));
  w.key("truncated");
  w.value(r.latticeStats.truncated);
  w.endObject();

  if (opts.includeObservedRun) {
    w.key("observedStates");
    w.beginArray();
    for (const auto& s : r.observedStates) writeState(w, s, r.space);
    w.endArray();
  }

  w.key("violations");
  w.beginArray();
  std::size_t count = 0;
  for (const auto& v : r.predictedViolations) {
    if (count++ >= opts.maxViolations) break;
    writeViolation(w, r, v, opts.includeCounterexamples);
  }
  w.endArray();

  if (opts.includeMetrics) {
    w.key("metrics");
    writeMetrics(w);
  }

  w.endObject();
  return w.str();
}

std::string toText(const AnalysisResult& r, ReportOptions opts) {
  std::ostringstream os;
  os << "observed run violates: " << (r.observedRunViolates() ? "YES" : "no")
     << '\n';
  os << "lattice: " << r.latticeStats.totalNodes << " nodes, "
     << r.latticeStats.levels << " levels, " << r.latticeStats.pathCount
     << " runs\n";
  os << "predicted violations: " << r.predictedViolations.size() << '\n';
  if (opts.includeObservedRun) {
    os << "observed states:";
    for (const auto& s : r.observedStates) os << ' ' << s.toString();
    os << '\n';
  }
  if (opts.includeCounterexamples) {
    std::size_t count = 0;
    for (const auto& v : r.predictedViolations) {
      if (count++ >= opts.maxViolations) break;
      os << '\n' << r.describe(v);
    }
  }
  return os.str();
}

std::string racesToJson(const std::vector<detect::RaceReport>& races,
                        const trace::VarTable& vars) {
  JsonWriter w(2);
  w.beginArray();
  for (const auto& race : races) {
    w.beginObject();
    w.key("var");
    w.value(vars.name(race.var));
    w.key("evidence");
    w.value(std::string(race.evidence == detect::RaceEvidence::kHappensBefore
                            ? "happens-before"
                            : "lockset"));
    w.key("firstThread");
    w.value(static_cast<std::uint64_t>(race.first.event.thread));
    w.key("secondThread");
    w.value(static_cast<std::uint64_t>(race.second.event.thread));
    w.key("description");
    w.value(race.describe(vars));
    w.endObject();
  }
  w.endArray();
  return w.str();
}

std::string deadlocksToJson(const std::vector<detect::DeadlockReport>& reports,
                            const std::vector<std::string>& lockNames) {
  JsonWriter w(2);
  w.beginArray();
  for (const auto& report : reports) {
    w.beginObject();
    w.key("cycle");
    w.beginArray();
    for (const LockId l : report.cycle) w.value(lockNames.at(l));
    w.endArray();
    w.key("description");
    w.value(report.describe(lockNames));
    w.endObject();
  }
  w.endArray();
  return w.str();
}

}  // namespace mpx::analysis
