#include "analysis/mhp_prefilter.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "telemetry/metrics.hpp"

namespace mpx::analysis {

namespace {
constexpr std::uint8_t kMhpCkptVersion = 1;
}

void MhpPrefilter::onRawEvent(const trace::Event& event,
                              const std::vector<LockId>& locksHeld) {
  rawLog_.emplace_back(event, locksHeld);
  if (!event.accessesVariable()) return;
  VarCensus& c = census_[event.var];
  c.threads.insert(event.thread);
  if (!c.any) {
    c.any = true;
    c.commonLocks = locksHeld;
    std::sort(c.commonLocks.begin(), c.commonLocks.end());
  } else {
    std::vector<LockId> held = locksHeld;
    std::sort(held.begin(), held.end());
    std::vector<LockId> inter;
    std::set_intersection(c.commonLocks.begin(), c.commonLocks.end(),
                          held.begin(), held.end(),
                          std::back_inserter(inter));
    c.commonLocks = std::move(inter);
  }
}

void MhpPrefilter::onMessage(const trace::Message& m) { log_.push_back(m); }

std::vector<std::pair<VarId, VarId>> MhpPrefilter::classifyNeverConcurrent(
    const std::vector<trace::Message>& messages) {
  // Group accesses by variable (ordered map: canonical pair order for free).
  std::map<VarId, std::vector<const trace::Message*>> byVar;
  for (const trace::Message& m : messages) {
    if (m.event.accessesVariable()) byVar[m.event.var].push_back(&m);
  }
  std::vector<std::pair<VarId, VarId>> out;
  for (auto x = byVar.begin(); x != byVar.end(); ++x) {
    for (auto y = std::next(x); y != byVar.end(); ++y) {
      bool ordered = true;
      for (const trace::Message* a : x->second) {
        for (const trace::Message* b : y->second) {
          if (a->concurrentWith(*b)) {
            ordered = false;
            break;
          }
        }
        if (!ordered) break;
      }
      if (ordered) out.emplace_back(x->first, y->first);
    }
  }
  return out;
}

void MhpPrefilter::finish(const observer::LatticeStats& stats) {
  (void)stats;
  pairs_ = classifyNeverConcurrent(log_);
  raceFree_ = raceFreeVars_impl();
  finished_ = true;
  if constexpr (telemetry::kEnabled) {
    telemetry::registry()
        .counter("mpx_analysis_mhp_pruned_pairs_total",
                 "Variable pairs classified never-concurrent")
        .add(static_cast<std::int64_t>(pairs_.size()));
    telemetry::registry()
        .counter("mpx_analysis_mhp_pruned_vars_total",
                 "Variables certified race-free by lockset/thread-locality")
        .add(static_cast<std::int64_t>(raceFree_.size()));
  }
}

std::vector<std::pair<VarId, VarId>> MhpPrefilter::neverConcurrentPairs()
    const {
  return finished_ ? pairs_ : classifyNeverConcurrent(log_);
}

std::vector<VarId> MhpPrefilter::raceFreeVars() const {
  return finished_ ? raceFree_ : raceFreeVars_impl();
}

std::vector<VarId> MhpPrefilter::raceFreeVars_impl() const {
  std::vector<VarId> out;
  for (const auto& [var, c] : census_) {
    if (c.threads.size() <= 1 || !c.commonLocks.empty()) out.push_back(var);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MhpPrefilter::checkpoint(observer::ckpt::Writer& w) const {
  w.u8(kMhpCkptVersion);
  w.u64(rawLog_.size());
  for (const auto& [e, locks] : rawLog_) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u32(e.thread);
    w.u32(e.var);
    w.i64(e.value);
    w.u64(e.localSeq);
    w.u64(e.globalSeq);
    w.u64(locks.size());
    for (const LockId l : locks) w.u32(l);
  }
  w.u64(log_.size());
  for (const trace::Message& m : log_) {
    w.u8(static_cast<std::uint8_t>(m.event.kind));
    w.u32(m.event.thread);
    w.u32(m.event.var);
    w.i64(m.event.value);
    w.u64(m.event.localSeq);
    w.u64(m.event.globalSeq);
    w.u64(m.clock.size());
    for (std::size_t i = 0; i < m.clock.size(); ++i) {
      w.u64(m.clock[static_cast<ThreadId>(i)]);
    }
  }
}

bool MhpPrefilter::restore(observer::ckpt::Reader& r) {
  if (r.u8() != kMhpCkptVersion) return false;
  const auto readEvent = [&](trace::Event& e) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(trace::EventKind::kRegionEnd)) {
      return false;
    }
    e.kind = static_cast<trace::EventKind>(kind);
    e.thread = r.u32();
    e.var = r.u32();
    e.value = r.i64();
    e.localSeq = r.u64();
    e.globalSeq = r.u64();
    return r.ok();
  };
  const std::uint64_t raws = r.len(29 + 8);
  for (std::uint64_t i = 0; i < raws && r.ok(); ++i) {
    trace::Event e;
    if (!readEvent(e)) return false;
    std::vector<LockId> locks(static_cast<std::size_t>(r.len(4)));
    for (auto& l : locks) l = r.u32();
    if (!r.ok()) return false;
    onRawEvent(e, locks);
  }
  const std::uint64_t msgs = r.len(29 + 8);
  for (std::uint64_t i = 0; i < msgs && r.ok(); ++i) {
    trace::Message m;
    if (!readEvent(m.event)) return false;
    const std::uint64_t width = r.len(8);
    vc::VectorClock clock(static_cast<std::size_t>(width));
    for (std::uint64_t c = 0; c < width; ++c) {
      clock.set(static_cast<ThreadId>(c), r.u64());
    }
    m.clock = std::move(clock);
    if (!r.ok()) return false;
    log_.push_back(std::move(m));
  }
  return r.ok();
}

observer::AnalysisReport MhpPrefilter::report() const {
  const auto pairs = neverConcurrentPairs();
  const auto raceFree = raceFreeVars();
  observer::AnalysisReport rep;
  rep.name = name();
  rep.kind = kind();
  rep.violationCount = 0;  // a prefilter finds no violations, only pruning
  std::ostringstream os;
  os << "mhp: never-concurrent-pairs=" << pairs.size()
     << " race-free-vars=" << raceFree.size() << '\n';
  // A message may name a variable the handshake's table lacks (a hostile
  // stream or snapshot): print its id rather than throw.
  const auto nameOf = [&](VarId v) {
    return vars_ != nullptr && v < vars_->size() ? vars_->name(v)
                                                 : "v" + std::to_string(v);
  };
  for (const auto& [lo, hi] : pairs) {
    os << "  ordered: " << nameOf(lo) << " , " << nameOf(hi) << '\n';
  }
  for (const VarId v : raceFree) {
    os << "  race-free: " << nameOf(v) << '\n';
  }
  rep.text = os.str();
  return rep;
}

}  // namespace mpx::analysis
