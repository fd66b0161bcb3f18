// Timing wrappers for the Store a workload hands to AsyncCheckpointEngine and to
// LoadUcpCheckpoint(Store&). Each forwards every virtual of Store / StoreWriter /
// ByteSource to the wrapped object unchanged and records one span per call, so the traced
// pass sees how long the save and load paths spend inside the store without touching the
// program. The benchmark checks that a wrapped load installs the same state digest as an
// unwrapped one.

#ifndef PERFBENCH_TIMED_STORE_H_
#define PERFBENCH_TIMED_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/ledger.h"
#include "src/store/store.h"

namespace perfbench {

// Span names the wrappers record.
inline constexpr char kOpenReadSpan[] = "store.open_read";
inline constexpr char kReadAtSpan[] = "store.read_at";
inline constexpr char kWriteFileSpan[] = "store.write_file";
inline constexpr char kCommitTagSpan[] = "store.commit_tag";
inline constexpr char kGcSpan[] = "store.gc";
inline constexpr char kStagingSpan[] = "store.staging";  // reset / open-for-write / abort

class TimedStore final : public ucp::Store {
 public:
  // `track` tags every span this handle records (one track per connection).
  TimedStore(std::shared_ptr<ucp::Store> inner, int track)
      : inner_(std::move(inner)), track_(track) {}

  // Spans of calls made by threads without a benchmark context (the engine's flusher, the
  // loader's pool) are attributed to the operation that bound the tag they touch, or else
  // to the default context: the operation the main thread is running.
  void BindTag(const std::string& tag, Context context);
  void SetDefaultContext(Context context);

  std::string Describe() const override { return inner_->Describe(); }
  std::string CacheKey(const std::string& rel) const override { return inner_->CacheKey(rel); }

  ucp::Result<std::unique_ptr<ucp::ByteSource>> OpenRead(const std::string& rel) override;
  ucp::Result<std::string> ReadSmallFile(const std::string& rel) override {
    return inner_->ReadSmallFile(rel);
  }
  ucp::Result<bool> Exists(const std::string& rel) override { return inner_->Exists(rel); }
  ucp::Result<std::vector<std::string>> List(const std::string& rel) override {
    return inner_->List(rel);
  }
  ucp::Result<std::vector<std::string>> ListTags(const std::string& job) override {
    return inner_->ListTags(job);
  }

  ucp::Result<std::unique_ptr<ucp::StoreWriter>> OpenTagForWrite(
      const std::string& tag) override;
  ucp::Status ResetTagStaging(const std::string& tag) override;
  ucp::Status CommitTag(const std::string& tag, const std::string& meta_json) override;
  ucp::Status AbortTag(const std::string& tag) override;

  ucp::Status DeleteTag(const std::string& tag) override { return inner_->DeleteTag(tag); }
  ucp::Result<ucp::GcReport> Gc(const std::string& job, int keep_last, bool dry_run) override;
  ucp::Result<int> SweepStagingDebris(const std::string& job) override {
    return inner_->SweepStagingDebris(job);
  }

  // The context spans of a call touching `tag` ("" for none) belong to.
  Context ContextFor(const std::string& tag);

 private:
  std::shared_ptr<ucp::Store> inner_;
  const int track_;
  std::mutex mu_;
  std::map<std::string, Context> tag_context_;
  Context default_context_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_STORE_H_
