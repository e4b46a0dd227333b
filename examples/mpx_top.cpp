// mpx_top — live pipeline introspection for a running mpx_observerd.
//
// Polls the daemon's `GET /streams` endpoint and renders two terminal
// tables: one row per analyzer SESSION (tenant + trace id, checkpoint
// epoch, restore count, watermark, violations), and one row per stream
// with pipeline health — frames/messages ingested, duplicates absorbed,
// frames still in flight, and the emit-to-receive / emit-to-analyze lag
// the daemon measures from kEventsTs send timestamps.  Streams are
// grouped under their session (sorted by tenant, then trace id).
//
//   mpx_top --port N [--host H] [--interval MS] [--once]
//
//   --port N      the daemon's listen port (required)
//   --host H      daemon host (default 127.0.0.1)
//   --interval MS refresh period (default 1000)
//   --once        print a single snapshot and exit (CI / scripting mode);
//                 exit 0 on a parseable snapshot, 1 when the daemon is
//                 unreachable
//
// The daemon emits the JSON; this client only needs to pluck scalar fields
// out of it, so the "parser" here is a deliberately tiny key scanner, not
// a general JSON reader.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host H] [--interval MS] [--once]\n",
               argv0);
  std::exit(2);
}

/// One-shot HTTP/1.0 GET; returns the body (everything after the blank
/// line) or an empty string on any failure.
std::string httpGet(const std::string& host, std::uint16_t port,
                    const std::string& path) {
  mpx::net::Socket s = mpx::net::Socket::connectTo(host, port);
  if (!s.valid()) return {};
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!s.sendAll(req.data(), req.size())) return {};
  std::string response;
  char buf[4096];
  std::ptrdiff_t n;
  while ((n = s.recvSome(buf, sizeof buf)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t sep = response.find("\r\n\r\n");
  if (sep == std::string::npos) return {};
  return response.substr(sep + 4);
}

/// Finds `"key": <digits>` inside `text` starting at `from`; returns
/// `fallback` when absent.  Good enough for the daemon's own renderer.
std::uint64_t jsonU64(const std::string& text, const char* key,
                      std::size_t from = 0, std::uint64_t fallback = 0) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return fallback;
  return std::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
}

bool jsonBool(const std::string& text, const char* key,
              std::size_t from = 0) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return false;
  return text.compare(at + needle.size(), 4, "true") == 0;
}

std::string jsonStr(const std::string& text, const char* key,
                    std::size_t from = 0) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return "?";
  const std::size_t start = at + needle.size();
  const std::size_t end = text.find('"', start);
  if (end == std::string::npos) return "?";
  return text.substr(start, end - start);
}

/// Splits a `"<label>": [...]` array into one raw-JSON chunk per object
/// (objects are flat — no nested braces beyond the lag maps, which we
/// balance with a depth counter).  The per-session scalar `"streams": N`
/// never matches because the needle requires the `[`.
std::vector<std::string> arrayChunks(const std::string& body,
                                     const char* label) {
  std::vector<std::string> out;
  const std::size_t arr =
      body.find(std::string("\"") + label + "\": [");
  if (arr == std::string::npos) return out;
  std::size_t i = arr;
  int depth = 0;
  std::size_t start = 0;
  for (; i < body.size(); ++i) {
    const char c = body[i];
    if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      if (depth > 0 && --depth == 0) {
        out.push_back(body.substr(start, i - start + 1));
      }
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

double toMs(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

int renderOnce(const std::string& host, std::uint16_t port, bool clear) {
  const std::string body = httpGet(host, port, "/streams");
  if (body.empty()) {
    std::fprintf(stderr, "mpx_top: no response from %s:%u\n", host.c_str(),
                 static_cast<unsigned>(port));
    return 1;
  }
  if (clear) std::fputs("\033[H\033[2J", stdout);

  const std::uint64_t levels = jsonU64(body, "levels");
  const std::uint64_t watermark =
      jsonU64(body, "watermark_level", 0, ~std::uint64_t{0});
  const std::uint64_t pending = jsonU64(body, "pending_messages");
  const std::uint64_t buffered = jsonU64(body, "buffered_messages");
  std::printf("mpx_top — %s:%u   levels=%llu watermark=%lld pending=%llu "
              "buffered=%llu degradation=%s finished=%s checkpoints=%llu "
              "restored=%llu\n",
              host.c_str(), static_cast<unsigned>(port),
              static_cast<unsigned long long>(levels),
              watermark == ~std::uint64_t{0}
                  ? -1ll
                  : static_cast<long long>(watermark),
              static_cast<unsigned long long>(pending),
              static_cast<unsigned long long>(buffered),
              jsonStr(body, "degradation").c_str(),
              jsonBool(body, "finished") ? "yes" : "no",
              static_cast<unsigned long long>(
                  jsonU64(body, "checkpoints_written")),
              static_cast<unsigned long long>(
                  jsonU64(body, "sessions_restored")));

  const std::vector<std::string> sessions = arrayChunks(body, "sessions");
  if (!sessions.empty()) {
    std::printf("%-16s %-18s %5s %4s %9s %7s %8s %4s %5s %4s\n", "TENANT",
                "TRACE", "EPOCH", "RST", "WATERMARK", "PENDING", "BUFFERED",
                "VIOL", "ENDED", "FIN");
    for (const std::string& chunk : sessions) {
      const std::string tenant = jsonStr(chunk, "tenant");
      char tracebuf[19];
      std::snprintf(tracebuf, sizeof tracebuf, "%016llx",
                    static_cast<unsigned long long>(
                        jsonU64(chunk, "trace_id")));
      std::printf(
          "%-16s %-18s %5llu %4llu %9llu %7llu %8llu %4llu %5llu %4s\n",
          tenant == "?" || tenant.empty() ? "(default)" : tenant.c_str(),
          tracebuf,
          static_cast<unsigned long long>(jsonU64(chunk, "epoch")),
          static_cast<unsigned long long>(jsonU64(chunk, "restores")),
          static_cast<unsigned long long>(jsonU64(chunk, "watermark_level")),
          static_cast<unsigned long long>(jsonU64(chunk, "pending_messages")),
          static_cast<unsigned long long>(jsonU64(chunk, "buffered_messages")),
          static_cast<unsigned long long>(jsonU64(chunk, "violations")),
          static_cast<unsigned long long>(jsonU64(chunk, "streams_ended")),
          jsonBool(chunk, "finished") ? "yes" : "no");
    }
  }

  std::printf("%-16s %-18s %3s %4s %7s %8s %6s %8s %5s %12s %12s\n",
              "TENANT", "STREAM", "VER", "CONN", "FRAMES", "MSGS", "DUP",
              "INFLIGHT", "END", "RECV-LAG ms", "ANLZ-LAG ms");
  for (const std::string& chunk : arrayChunks(body, "streams")) {
    const std::uint64_t id = jsonU64(chunk, "stream_id");
    const std::string tenant = jsonStr(chunk, "tenant");
    const std::size_t recvAt = chunk.find("\"receive_lag_ns\"");
    const std::size_t anlzAt = chunk.find("\"analyze_lag_ns\"");
    char idbuf[19];
    std::snprintf(idbuf, sizeof idbuf, "%016llx",
                  static_cast<unsigned long long>(id));
    std::printf("%-16s %-18s %3llu %4llu %7llu %8llu %6llu %8llu %5s "
                "%12.3f %12.3f\n",
                tenant == "?" || tenant.empty() ? "(default)"
                                                : tenant.c_str(),
                idbuf,
                static_cast<unsigned long long>(jsonU64(chunk, "version")),
                static_cast<unsigned long long>(
                    jsonU64(chunk, "connections")),
                static_cast<unsigned long long>(jsonU64(chunk, "frames")),
                static_cast<unsigned long long>(jsonU64(chunk, "messages")),
                static_cast<unsigned long long>(
                    jsonU64(chunk, "duplicates")),
                static_cast<unsigned long long>(
                    jsonU64(chunk, "frames_in_flight")),
                jsonBool(chunk, "ended") ? "yes" : "no",
                toMs(jsonU64(chunk, "mean_ns", recvAt)),
                toMs(jsonU64(chunk, "mean_ns", anlzAt)));
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  std::string host = "127.0.0.1";
  long intervalMs = 1000;
  bool once = false;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      intervalMs = std::strtol(argv[++i], nullptr, 10);
      if (intervalMs < 10) intervalMs = 10;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else {
      usage(argv[0]);
    }
  }
  if (port == 0) usage(argv[0]);

  if (once) return renderOnce(host, port, /*clear=*/false);
  for (;;) {
    renderOnce(host, port, /*clear=*/true);
    std::this_thread::sleep_for(std::chrono::milliseconds(intervalMs));
  }
}
