#include "src/soak/invariants.h"

#include <algorithm>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

constexpr const char kStagingSuffix[] = ".staging";
constexpr const char kUcpSuffix[] = ".ucp";

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Mirrors Store::SweepStagingDebris's ownership rule: `<tag>.staging` and `<tag>.ucp.staging`
// belong to the namespace their tag parses into; unparseable staging names can only belong
// to the default namespace.
bool StagingOwnedByJob(const std::string& name, const std::string& job) {
  if (!EndsWith(name, kStagingSuffix)) {
    return false;
  }
  std::string base = name.substr(0, name.size() - (sizeof(kStagingSuffix) - 1));
  if (EndsWith(base, kUcpSuffix)) {
    base.resize(base.size() - (sizeof(kUcpSuffix) - 1));
  }
  std::string tag_job;
  if (ParseTagName(base, &tag_job, nullptr)) {
    return tag_job == job;
  }
  return job.empty();
}

}  // namespace

SoakInvariantResult CheckSoakInvariants(const SoakInvariantContext& context) {
  SoakInvariantResult result;
  auto violation = [&](std::string text) { result.violations.push_back(std::move(text)); };

  // I1 — no committed tag ahead of training progress.
  ++result.checks_run;
  LocalStore store(context.dir);
  std::vector<std::string> committed;
  Result<std::vector<std::string>> tags = store.ListTags(context.job);
  if (!tags.ok()) {
    violation(std::string("I1: listing tags failed: ") + StatusCodeName(tags.status().code()));
  } else {
    for (const std::string& tag : *tags) {
      if (!IsTagComplete(store, tag)) {
        continue;  // an aborted save; readers skip it by design
      }
      committed.push_back(tag);
      int64_t iteration = 0;
      if (ParseTagName(tag, nullptr, &iteration) && iteration > context.max_trained_iteration) {
        violation("I1: committed tag " + tag + " is ahead of training progress (max " +
                  std::to_string(context.max_trained_iteration) + ")");
      }
    }
  }
  result.committed_tags = static_cast<int>(committed.size());
  result.committed_tag_names = committed;

  // I2 — the resumable frontier is monotone absent corruption.
  ++result.checks_run;
  Result<std::string> latest_valid = FindLatestValidTag(store, context.job);
  if (latest_valid.ok()) {
    result.latest_valid_tag = *latest_valid;
    ParseTagName(*latest_valid, nullptr, &result.latest_valid_iteration);
  }
  if (context.prev_latest_valid >= 0 &&
      result.latest_valid_iteration < context.prev_latest_valid &&
      !context.corruption_since_last_check) {
    violation("I2: resumable frontier regressed from iteration " +
              std::to_string(context.prev_latest_valid) + " to " +
              std::to_string(result.latest_valid_iteration) + " with no corruption injected");
  }

  // I3 — injected corruption is the only excuse for damage. Walk committed tags newest to
  // oldest until one deep-verifies; everything damaged before it counts.
  ++result.checks_run;
  bool found_clean = committed.empty();
  for (auto it = committed.rbegin(); it != committed.rend(); ++it) {
    ValidateOptions options;
    options.deep = true;
    options.num_threads = 0;  // inline: keeps the check deterministic and cheap at soak scale
    Result<ValidationReport> report = ValidateNativeCheckpoint(store, *it, options);
    if (report.ok() && report->ok()) {
      found_clean = true;
      break;
    }
    ++result.damaged_tags;
  }
  if (result.damaged_tags > context.corruptions_fired_total) {
    violation("I3: " + std::to_string(result.damaged_tags) +
              " damaged committed tags exceed " +
              std::to_string(context.corruptions_fired_total) + " injected corruptions");
  }
  if (!found_clean && context.corruptions_fired_total == 0) {
    violation("I3: no committed tag deep-verifies and no corruption was injected");
  }

  // I4 — staging debris accounting.
  ++result.checks_run;
  Result<std::vector<std::string>> entries = ListDir(context.dir);
  if (entries.ok()) {
    for (const std::string& name : *entries) {
      if (StagingOwnedByJob(name, context.job)) {
        ++result.staging_dirs;
      }
    }
  }
  if (context.expect_no_staging && result.staging_dirs > 0) {
    violation("I4: " + std::to_string(result.staging_dirs) +
              " stale .staging entries after a clean resumed segment");
  }

  // I5 — the latest pointer stays inside the namespace and never names an uncommitted tag.
  ++result.checks_run;
  Result<std::string> pointer = ReadLatestTag(store, context.job);
  if (pointer.ok()) {
    std::string pointer_job;
    if (!ParseTagName(*pointer, &pointer_job, nullptr) || pointer_job != context.job) {
      violation("I5: latest pointer names a foreign tag: " + *pointer);
    } else if (DirExists(PathJoin(context.dir, *pointer)) &&
               !IsTagComplete(store, *pointer)) {
      violation("I5: latest pointer names uncommitted tag " + *pointer);
    }
  }

  // I8 — commit durability under wire chaos: a tag once committed (and not GC'd) never
  // disappears or loses its complete marker. Corruption faults damage bytes inside a tag
  // (I3's domain); only a protocol bug deletes or un-commits one, so there is no excuse.
  ++result.checks_run;
  for (const std::string& tag : context.must_exist_tags) {
    if (!DirExists(PathJoin(context.dir, tag))) {
      violation("I8: committed tag " + tag + " vanished from the store");
    } else if (!IsTagComplete(store, tag)) {
      violation("I8: committed tag " + tag + " lost its complete marker");
    }
  }

  return result;
}

}  // namespace ucp
