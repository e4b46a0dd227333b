#include <cstring>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

SpanLog::Totals SpanLog::totals(const char* name) const {
  Totals t;
  double childNs = 0;
  for (const Span& s : spans_) {
    const auto d = static_cast<double>(s.endNs - s.startNs);
    if (std::strcmp(s.name, name) == 0) {
      ++t.count;
      t.totalNs += d;
    }
    if (s.parent != kNoParent &&
        std::strcmp(spans_[static_cast<std::size_t>(s.parent)].name, name) ==
            0) {
      childNs += d;
    }
  }
  t.selfNs = t.totalNs - childNs;
  return t;
}

std::vector<double> SpanLog::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.endNs - s.startNs));
    }
  }
  return out;
}

bool SpanLog::writeChromeJson(const std::string& path,
                              std::size_t maxSpans) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
  const std::size_t n = std::min(maxSpans, spans_.size());
  f << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":" << spans_.size()
    << ",\"written\":" << n << "},\"traceEvents\":[";
  f.setf(std::ios::fixed);
  f.precision(3);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    f << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << static_cast<double>(s.startNs - base) / 1e3
      << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
