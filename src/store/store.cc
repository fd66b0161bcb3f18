#include "src/store/store.h"

#include "src/common/strings.h"
#include "src/store/local_store.h"
#include "src/store/remote_store.h"

namespace ucp {

std::string GcReport::ToString() const {
  std::string out = "gc: removed " + std::to_string(removed.size()) + ", kept " +
                    std::to_string(kept.size()) + "\n";
  for (const std::string& tag : removed) {
    out += "  removed " + tag + "\n";
  }
  for (const std::string& tag : kept) {
    out += "  kept    " + tag + "\n";
  }
  return out;
}

Result<std::string> ReadLatestTag(Store& store, const std::string& job) {
  if (!IsValidJobId(job)) {
    return InvalidArgumentError("bad job id: " + job);
  }
  return store.ReadSmallFile(LatestFileName(job));
}

bool IsTagComplete(Store& store, const std::string& tag) {
  Result<bool> exists = store.Exists(JoinRel(tag, kCompleteMarker));
  return exists.ok() && *exists;
}

Result<CheckpointMeta> ReadCheckpointMeta(Store& store, const std::string& tag) {
  UCP_ASSIGN_OR_RETURN(bool tag_exists, store.Exists(tag));
  if (tag_exists && !IsTagComplete(store, tag)) {
    return DataLossError("checkpoint tag " + tag +
                         " is not committed (missing 'complete' marker)");
  }
  UCP_ASSIGN_OR_RETURN(std::string text,
                       store.ReadSmallFile(JoinRel(tag, "checkpoint_meta.json")));
  UCP_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return CheckpointMeta::FromJson(json);
}

Result<std::string> FindLatestValidTag(Store& store, const std::string& job) {
  UCP_ASSIGN_OR_RETURN(std::vector<std::string> tags, store.ListTags(job));
  for (auto it = tags.rbegin(); it != tags.rend(); ++it) {
    if (!IsTagComplete(store, *it)) {
      continue;  // aborted save — the marker is written last
    }
    if (ReadCheckpointMeta(store, *it).ok()) {
      return *it;
    }
  }
  return NotFoundError("no committed checkpoint tag in " + store.Describe());
}

std::string JoinRel(const std::string& a, const std::string& b) {
  if (a.empty()) {
    return b;
  }
  if (b.empty()) {
    return a;
  }
  if (a.back() == '/') {
    return a + b;
  }
  return a + "/" + b;
}

bool IsRemoteEndpoint(const std::string& endpoint) {
  return StartsWith(endpoint, "unix:") || StartsWith(endpoint, "tcp:");
}

Result<std::shared_ptr<Store>> OpenStore(const std::string& endpoint) {
  if (endpoint.empty()) {
    return InvalidArgumentError("empty store endpoint");
  }
  if (IsRemoteEndpoint(endpoint)) {
    UCP_ASSIGN_OR_RETURN(std::shared_ptr<RemoteStore> remote,
                         RemoteStore::Connect(endpoint));
    return std::shared_ptr<Store>(std::move(remote));
  }
  return std::shared_ptr<Store>(std::make_shared<LocalStore>(endpoint));
}

}  // namespace ucp
