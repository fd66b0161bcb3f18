#include "src/store/local_store.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ucp {

namespace {

class LocalStoreWriter final : public StoreWriter {
 public:
  LocalStoreWriter(std::string staging, std::string tag)
      : StoreWriter(std::move(tag)), staging_(std::move(staging)) {}

  Status WriteFile(const std::string& rel, const void* data, size_t size) override {
    if (!IsSafeStoreRelPath(rel)) {
      return InvalidArgumentError("bad store file name: " + rel);
    }
    // A nested `rel` (a UCP export's `atoms/<param>`) gets its directory, as the daemon's
    // WRITE_END does. WriteFileAtomic runs on the calling thread, so an enclosing
    // ScopedFsyncBatch (the async flusher's) still batches its fsync.
    const std::string path = PathJoin(staging_, rel);
    if (rel.find('/') != std::string::npos) {
      UCP_RETURN_IF_ERROR(MakeDirs(ParentDir(path)));
    }
    return WriteFileAtomic(path, data, size);
  }

 private:
  std::string staging_;
};

}  // namespace

std::string LocalStore::CacheKey(const std::string& rel) const {
  return PathJoin(root_, rel);
}

Result<std::unique_ptr<ByteSource>> LocalStore::OpenRead(const std::string& rel) {
  if (!IsSafeStoreRelPath(rel)) {
    return InvalidArgumentError("bad store path: " + rel);
  }
  return FileByteSource::Open(PathJoin(root_, rel));
}

Result<std::string> LocalStore::ReadSmallFile(const std::string& rel) {
  if (!IsSafeStoreRelPath(rel)) {
    return InvalidArgumentError("bad store path: " + rel);
  }
  return ReadFileToString(PathJoin(root_, rel));
}

Result<bool> LocalStore::Exists(const std::string& rel) {
  if (!IsSafeStoreRelPath(rel)) {
    return InvalidArgumentError("bad store path: " + rel);
  }
  const std::string path = PathJoin(root_, rel);
  return FileExists(path) || DirExists(path);
}

Result<std::vector<std::string>> LocalStore::List(const std::string& rel) {
  if (!rel.empty() && !IsSafeStoreRelPath(rel)) {
    return InvalidArgumentError("bad store path: " + rel);
  }
  return ListDir(rel.empty() ? root_ : PathJoin(root_, rel));
}

Result<std::vector<std::string>> LocalStore::ListTags(const std::string& job) {
  if (!IsValidJobId(job)) {
    return InvalidArgumentError("bad job id: " + job);
  }
  UCP_ASSIGN_OR_RETURN(std::vector<std::string> entries, ListDir(root_));
  std::vector<std::pair<int64_t, std::string>> tagged;
  for (const std::string& name : entries) {
    std::string tag_job;
    int64_t iteration = 0;
    if (ParseTagName(name, &tag_job, &iteration) && tag_job == job &&
        DirExists(PathJoin(root_, name))) {
      tagged.emplace_back(iteration, name);
    }
  }
  std::sort(tagged.begin(), tagged.end());
  std::vector<std::string> tags;
  tags.reserve(tagged.size());
  for (auto& [iteration, name] : tagged) {
    tags.push_back(std::move(name));
  }
  return tags;
}

Result<std::unique_ptr<StoreWriter>> LocalStore::OpenTagForWrite(const std::string& tag) {
  if (!IsSafeStoreName(tag)) {
    return InvalidArgumentError("bad checkpoint tag: " + tag);
  }
  return std::unique_ptr<StoreWriter>(
      new LocalStoreWriter(StagingDirForTag(root_, tag), tag));
}

Status LocalStore::ResetTagStaging(const std::string& tag) {
  if (!IsSafeStoreName(tag)) {
    return InvalidArgumentError("bad checkpoint tag: " + tag);
  }
  const std::string staging = StagingDirForTag(root_, tag);
  // Any half-streamed spool files the daemon kept for WRITE_RESUME are part of the same
  // debris.
  UCP_RETURN_IF_ERROR(RemoveAll(WipDirForTag(root_, tag)));
  UCP_RETURN_IF_ERROR(RemoveAll(staging));
  return MakeDirs(staging);
}

// The commit: metadata into staging, publish via rename, marker last, then `latest`. The
// ordering is the whole protocol — a crash between any two steps leaves a state every
// reader handles (no tag / unmarked tag / marked tag with a stale `latest`).
Status LocalStore::CommitTag(const std::string& tag, const std::string& meta_json) {
  if (!IsSafeStoreName(tag)) {
    return InvalidArgumentError("bad checkpoint tag: " + tag);
  }
  UCP_TRACE_SPAN_ARGS("save.commit", ::ucp::obs::TraceArgs().S("tag", tag));
  static obs::Counter& commits =
      obs::MetricsRegistry::Global().GetCounter("save.commits");
  const std::string tag_dir = PathJoin(root_, tag);
  const std::string staging = StagingDirForTag(root_, tag);
  UCP_RETURN_IF_ERROR(
      WriteFileAtomic(PathJoin(staging, "checkpoint_meta.json"), meta_json));
  // Re-saving a tag replaces the previous commit wholesale.
  UCP_RETURN_IF_ERROR(RemoveAll(tag_dir));
  UCP_RETURN_IF_ERROR(RenamePath(staging, tag_dir));
  UCP_RETURN_IF_ERROR(WriteFileAtomic(PathJoin(tag_dir, kCompleteMarker), tag));
  // The latest pointer belongs to the namespace the tag name carries. Any other name (a UCP
  // export such as `global_step3.ucp`, a tool's or a test's tag) moves no pointer.
  std::string job;
  if (ParseTagName(tag, &job, nullptr)) {
    UCP_RETURN_IF_ERROR(WriteFileAtomic(PathJoin(root_, LatestFileName(job)), tag));
  }
  commits.Add(1);
  // A leftover spool dir (resumed uploads that were superseded) is dead weight now.
  UCP_RETURN_IF_ERROR(RemoveAll(WipDirForTag(root_, tag)));
  return OkStatus();
}

Status LocalStore::AbortTag(const std::string& tag) {
  if (!IsSafeStoreName(tag)) {
    return InvalidArgumentError("bad checkpoint tag: " + tag);
  }
  UCP_RETURN_IF_ERROR(RemoveAll(WipDirForTag(root_, tag)));
  return RemoveAll(StagingDirForTag(root_, tag));
}

Status LocalStore::DeleteTag(const std::string& tag) {
  if (!IsSafeStoreName(tag)) {
    return InvalidArgumentError("bad checkpoint tag: " + tag);
  }
  UCP_RETURN_IF_ERROR(RemoveAll(PathJoin(root_, tag)));
  // A cached UCP conversion belongs to its tag; don't orphan it.
  return RemoveAll(PathJoin(root_, tag + ".ucp"));
}

Result<GcReport> LocalStore::Gc(const std::string& job, int keep_last, bool dry_run) {
  if (keep_last < 1) {
    return InvalidArgumentError("keep_last must be >= 1");
  }
  UCP_ASSIGN_OR_RETURN(std::vector<std::string> tags, ListTags(job));
  std::vector<std::string> committed;
  for (const std::string& tag : tags) {
    if (::ucp::IsTagComplete(*this, tag)) {
      committed.push_back(tag);  // ascending iteration order, inherited from ListTags
    }
  }
  // The `latest` guard reads this job's own pointer — a sibling job's pointer naming its
  // own newest tag must not pin anything in this namespace (and can't: tags differ).
  std::string latest;
  if (Result<std::string> latest_tag = ::ucp::ReadLatestTag(*this, job); latest_tag.ok()) {
    latest = *latest_tag;
  }
  // Recency alone can destroy resumability: when every tag inside the keep window is
  // damaged (a torn write that still committed), the newest *readable* tag sits outside
  // the window, and deleting it would leave the job nothing to resume from. Pin it like
  // `latest`. Readability here is meta-readability — the same frontier definition resume's
  // tag walk starts from; a deep shard scan per GC would be disproportionate.
  std::string valid;
  if (Result<std::string> valid_tag = ::ucp::FindLatestValidTag(*this, job);
      valid_tag.ok()) {
    valid = *valid_tag;
  }
  GcReport report;
  // Protect the newest keep_last committed tags AND whatever `latest` names — when the
  // pointer lags (or was rolled back by hand), retention must not strand the resume.
  const size_t first_kept = committed.size() > static_cast<size_t>(keep_last)
                                ? committed.size() - static_cast<size_t>(keep_last)
                                : 0;
  for (size_t i = 0; i < committed.size(); ++i) {
    const std::string& tag = committed[i];
    if (i < first_kept && tag != latest && tag != valid) {
      if (!dry_run) {
        UCP_RETURN_IF_ERROR(DeleteTag(tag));
      }
      report.removed.push_back(tag);
    } else {
      report.kept.push_back(tag);
    }
  }
  return report;
}

Result<int> LocalStore::SweepStagingDebris(const std::string& job) {
  if (!IsValidJobId(job)) {
    return InvalidArgumentError("bad job id: " + job);
  }
  if (!DirExists(root_)) {
    return 0;
  }
  UCP_ASSIGN_OR_RETURN(std::vector<std::string> entries, ListDir(root_));
  int removed = 0;
  for (const std::string& name : entries) {
    // `.staging` dirs are save/converter debris; `.wip` dirs are the daemon's upload
    // spools, orphaned once no live lease can resume into them.
    size_t suffix_len = 0;
    if (EndsWith(name, kStagingSuffix)) {
      suffix_len = sizeof(kStagingSuffix) - 1;
    } else if (EndsWith(name, kWipSuffix)) {
      suffix_len = sizeof(kWipSuffix) - 1;
    }
    if (suffix_len == 0 || name.size() <= suffix_len ||
        !DirExists(PathJoin(root_, name))) {
      continue;
    }
    // Ownership of a staging dir is decided by the tag name under the suffixes: both save
    // debris (`<tag>.staging`) and converter debris (`<tag>.ucp.staging`) belong to the
    // job the tag names. Staging dirs that parse to no job at all (free-form tags) are
    // swept by the default job only — they cannot belong to a namespaced job.
    std::string base = name.substr(0, name.size() - suffix_len);
    if (EndsWith(base, ".ucp")) {
      base.resize(base.size() - 4);
    }
    std::string tag_job;
    const bool parsed = ParseTagName(base, &tag_job, nullptr);
    const bool owned = parsed ? tag_job == job : job.empty();
    if (!owned) {
      continue;
    }
    UCP_RETURN_IF_ERROR(RemoveAll(PathJoin(root_, name)));
    ++removed;
  }
  return removed;
}

}  // namespace ucp
