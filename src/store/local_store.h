// The direct-FS checkpoint store: the on-disk layout of docs/durability.md behind Store.
//
// LocalStore is the one place a store-relative name becomes a filesystem path. Every
// checkpoint reader (native load, Extract and conversion, validation, the UCP load, the
// resume tag walk) takes a Store&, so a caller holding a directory constructs a
// LocalStore on it. ucp_serverd hosts a LocalStore as its backing root, which is how
// "local and remote are one code path" bottoms out.

#ifndef UCP_SRC_STORE_LOCAL_STORE_H_
#define UCP_SRC_STORE_LOCAL_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/store/store.h"

namespace ucp {

class LocalStore final : public Store {
 public:
  explicit LocalStore(std::string root) : root_(std::move(root)) {}

  const std::string& root() const { return root_; }

  std::string Describe() const override { return "dir:" + root_; }
  std::string CacheKey(const std::string& rel) const override;

  Result<std::unique_ptr<ByteSource>> OpenRead(const std::string& rel) override;
  Result<std::string> ReadSmallFile(const std::string& rel) override;
  Result<bool> Exists(const std::string& rel) override;
  Result<std::vector<std::string>> List(const std::string& rel) override;
  Result<std::vector<std::string>> ListTags(const std::string& job) override;

  Result<std::unique_ptr<StoreWriter>> OpenTagForWrite(const std::string& tag) override;
  Status ResetTagStaging(const std::string& tag) override;
  Status CommitTag(const std::string& tag, const std::string& meta_json) override;
  Status AbortTag(const std::string& tag) override;

  Status DeleteTag(const std::string& tag) override;
  Result<GcReport> Gc(const std::string& job, int keep_last, bool dry_run) override;
  Result<int> SweepStagingDebris(const std::string& job) override;

 private:
  std::string root_;
};

}  // namespace ucp

#endif  // UCP_SRC_STORE_LOCAL_STORE_H_
