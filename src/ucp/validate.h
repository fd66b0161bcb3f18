// Checkpoint validation ("fsck" for checkpoints): structural and integrity checks for both
// native distributed checkpoints and UCP atom directories. Used by `ucp_tool validate` and
// by operators before committing to a long resume.

#ifndef UCP_SRC_UCP_VALIDATE_H_
#define UCP_SRC_UCP_VALIDATE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/store/store.h"

namespace ucp {

struct ValidationReport {
  bool ok() const { return problems.empty(); }
  std::vector<std::string> problems;  // human-readable findings; empty = clean
  int files_checked = 0;
  int64_t bytes_checked = 0;

  std::string ToString() const;
};

struct ValidateOptions {
  // deep = verify every payload CRC (chunked for format v3). false ("--fast") trusts the
  // header CRCs only — structure and shapes are still checked, but payload bit rot past the
  // headers goes unnoticed; use it for quick pre-resume sanity sweeps, not for audits.
  bool deep = true;
  // Per-file checks fan out on a ThreadPool; 0 runs them inline.
  int num_threads = 4;
};

// Native distributed checkpoint `tag`, read through `store`: metadata parses; every
// expected shard file (per the saved strategy) exists, passes its CRC, and carries tensors
// consistent with the flat-layout metadata; flat layouts agree across DP partitions.
// Findings name files by their store-relative path.
Result<ValidationReport> ValidateNativeCheckpoint(Store& store, const std::string& tag,
                                                  const ValidateOptions& options = {});

// UCP atom directory: the manifest parses and names format version 2; every listed atom is
// one file holding exactly its three members (fp32, exp_avg, exp_avg_sq) with the model
// inventory's shape and intact CRCs; no inventory parameter is missing.
Result<ValidationReport> ValidateUcpCheckpoint(const std::string& ucp_dir,
                                               const ValidateOptions& options = {});

// Whole-tree integrity check ("ucp_tool fsck"). `path` is either a UCP atom directory
// (detected by ucp_meta.json / atoms/) or a checkpoint root holding global_stepN tags; in
// the latter case every tag and every cached <tag>.ucp dir is validated, the `latest`
// pointer is cross-checked, and stale `.staging` debris is reported. With `quarantine`,
// damaged tags/UCP dirs are renamed aside to `<name>.quarantined` — a name tag listing
// ignores — so resumes fall back to intact checkpoints.
struct FsckReport {
  struct Entry {
    std::string name;  // tag name, UCP dir name, or the path itself in UCP-dir mode
    ValidationReport report;
  };
  std::vector<Entry> entries;
  std::vector<std::string> notes;        // dangling `latest`, stale staging dirs, ...
  std::vector<std::string> quarantined;  // paths renamed to <name>.quarantined
  int quarantine_failures = 0;           // damaged entries that could not be renamed aside

  bool clean() const;  // no per-entry problems and no notes
  std::string ToString() const;

  // One-line outcome for `ucp_tool fsck --quarantine`: how many entries were renamed aside
  // (and to where), how many quarantines failed, how many intact entries remain.
  std::string QuarantineSummary() const;

  // CLI exit code. Without quarantine: 0 clean / 1 problems (unchanged behavior). With
  // quarantine: 0 clean (nothing to do), 1 repaired (all damage renamed aside or removed,
  // usable state remains), 2 unrecoverable (a quarantine failed, or every checkpoint entry
  // was damaged so nothing resumable is left).
  int ExitCode(bool quarantine_mode) const;
};

struct FsckOptions {
  bool quarantine = false;
  bool fast = false;  // header-only integrity (ValidateOptions::deep = false)
  int num_threads = 4;
};

Result<FsckReport> Fsck(const std::string& path, const FsckOptions& options);

inline Result<FsckReport> Fsck(const std::string& path, bool quarantine) {
  FsckOptions options;
  options.quarantine = quarantine;
  return Fsck(path, options);
}

}  // namespace ucp

#endif  // UCP_SRC_UCP_VALIDATE_H_
