// The benchmark's fsync(2). Defined in the benchmark binary, it takes precedence over
// libc's for the program's statically linked libraries: every fsync the process issues is
// counted and timed here, then made as the same system call. The program's own
// `fs.fsync.calls` counter sees only batched fsyncs, not the eager per-file ones of the
// converter or the daemon's commit path.

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>

#include "perfbench/ledger.h"

namespace perfbench {
namespace {
std::atomic<int64_t> g_fsync_calls{0};
std::atomic<int64_t> g_fsync_ns{0};
}  // namespace

FsyncTotals ReadFsyncTotals() {
  return FsyncTotals{static_cast<double>(g_fsync_calls.load()),
                     static_cast<double>(g_fsync_ns.load()) * 1e-6};
}

}  // namespace perfbench

extern "C" int fsync(int fd) {
  const int64_t t0 = perfbench::NowNs();
  const int rc = static_cast<int>(syscall(SYS_fsync, fd));
  perfbench::g_fsync_ns.fetch_add(perfbench::NowNs() - t0);
  perfbench::g_fsync_calls.fetch_add(1);
  return rc;
}
