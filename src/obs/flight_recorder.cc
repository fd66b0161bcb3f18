#include "src/obs/flight_recorder.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ucp {
namespace obs {

namespace {

// Newest trace events kept per thread in a dossier.
constexpr size_t kMaxEventsPerThread = 512;

std::atomic<uint64_t> g_dump_seq{0};

bool EnsureDir(const std::string& path, std::string* err) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return true;
  }
  *err = "mkdir " + path + ": " + ::strerror(errno);
  return false;
}

// Raw POSIX write + fsync; see the header for why this bypasses src/common/fs.
bool WriteWhole(const std::string& path, const std::string& content, std::string* err) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    *err = "open " + path + ": " + ::strerror(errno);
    return false;
  }
  size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      *err = "write " + path + ": " + ::strerror(errno);
      ::close(fd);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  ::fsync(fd);  // best-effort: a dossier losing a page beats no dossier
  if (::close(fd) != 0) {
    *err = "close " + path + ": " + ::strerror(errno);
    return false;
  }
  return true;
}

std::string SanitizeLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '-';
  }
  return out.empty() ? std::string("dump") : out;
}

}  // namespace

bool DumpFlightRecord(const std::string& dir, const std::string& label,
                      std::string* trace_path, std::string* err) {
  std::string local_err;
  if (err == nullptr) {
    err = &local_err;
  }
  const std::string flight_dir = dir + "/flightrec";
  if (!EnsureDir(flight_dir, err)) {
    return false;
  }
  const uint64_t seq = g_dump_seq.fetch_add(1, std::memory_order_relaxed);
  const std::string stem =
      flight_dir + "/flight-" + std::to_string(seq) + "-" + SanitizeLabel(label);

  const std::string trace_json = ExportChromeTraceJson(kMaxEventsPerThread);
  const std::string trace_file = stem + ".trace.json";
  if (!WriteWhole(trace_file, trace_json, err)) {
    return false;
  }
  // Metrics failure doesn't invalidate the trace dossier; report best-effort.
  std::string metrics_err;
  WriteWhole(stem + ".metrics.txt", DumpMetricsText(), &metrics_err);
  if (trace_path != nullptr) {
    *trace_path = trace_file;
  }
  return true;
}

}  // namespace obs
}  // namespace ucp
