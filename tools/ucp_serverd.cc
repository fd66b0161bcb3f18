// ucp_serverd — the checkpoint store daemon.
//
//   ucp_serverd --root DIR [--listen unix:/path|tcp:host:port] [--http tcp:host:port]
//               [--max-staged-bytes N] [--max-sessions N] [--lease-ttl-ms N]
//
// Serves the checkpoint store rooted at DIR to RemoteStore clients over the wire protocol
// (docs/store.md). `--http` additionally exposes plaintext GET /metrics and /healthz.
// SIGINT/SIGTERM shut the daemon down gracefully: the listener closes (a unix socket file
// is removed), in-flight exchanges finish (sessions drain), and uncommitted staging is
// left on disk exactly as a crashed local save would leave it — fsck and the next save
// handle it. A restarted daemon starts with no leases; clients resume their uploads from
// the spool on disk.

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "src/store/server.h"

namespace ucp {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ucp_serverd --root DIR [--listen unix:/path|tcp:host:port]\n"
               "              [--http tcp:host:port] [--max-staged-bytes N]\n"
               "              [--max-sessions N] [--lease-ttl-ms N]\n");
  return 2;
}

// Signal flag -> the main thread's poll loop; handlers must stay async-signal-safe.
volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  StoreServerOptions options;
  options.listen.clear();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (std::strcmp(arg, "--root") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.root = v;
    } else if (std::strcmp(arg, "--listen") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.listen = v;
    } else if (std::strcmp(arg, "--http") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.http_listen = v;
    } else if (std::strcmp(arg, "--max-staged-bytes") == 0) {
      if (!ParseU64(value(), &options.max_staged_bytes)) return Usage();
    } else if (std::strcmp(arg, "--max-sessions") == 0) {
      uint64_t v = 0;
      if (!ParseU64(value(), &v) || v == 0) return Usage();
      options.max_sessions = static_cast<int>(v);
    } else if (std::strcmp(arg, "--lease-ttl-ms") == 0) {
      // Max TTL a SESSION_OPEN may bind (longer requests are clamped); at least 1.
      uint64_t v = 0;
      if (!ParseU64(value(), &v) || v == 0 || v > UINT32_MAX) return Usage();
      options.max_lease_ttl_ms = static_cast<uint32_t>(v);
    } else if (std::strcmp(arg, "help") == 0 || std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return Usage();
    }
  }
  if (options.root.empty()) {
    std::fprintf(stderr, "--root is required\n");
    return Usage();
  }
  if (options.listen.empty()) {
    options.listen = "unix:" + options.root + "/ucp_serverd.sock";
  }

  const std::string root = options.root;
  Result<std::unique_ptr<StoreServer>> server = StoreServer::Start(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("ucp_serverd serving %s on %s", root.c_str(), (*server)->endpoint().c_str());
  if (!(*server)->http_endpoint().empty()) {
    std::printf("  (http %s)", (*server)->http_endpoint().c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  while (g_stop == 0) {
    // The accept/session threads do all the work; this thread only waits for a signal.
    ::usleep(200 * 1000);
  }
  std::printf("ucp_serverd shutting down (%d active session(s))\n",
              (*server)->active_sessions());
  (*server)->Shutdown();
  return 0;
}

}  // namespace
}  // namespace ucp

int main(int argc, char** argv) { return ucp::Main(argc, argv); }
