#include "src/ucp/validate.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/model/inventory.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/atom.h"

namespace ucp {

std::string ValidationReport::ToString() const {
  std::string out = StrFormat("%d files, %lld bytes checked: ", files_checked,
                              static_cast<long long>(bytes_checked));
  if (ok()) {
    return out + "CLEAN";
  }
  out += StrFormat("%zu problem(s)\n", problems.size());
  for (const std::string& problem : problems) {
    out += "  - " + problem + "\n";
  }
  return out;
}

namespace {

// A deferred integrity check of one store-relative file. Checks are collected first, fanned
// out on a ThreadPool, and merged into the report in submission order, so the findings are
// deterministic no matter how the pool schedules them. RunChecks opens the file; `fn`
// checks what it reads from it.
struct FileCheck {
  std::string rel;
  std::function<Status(std::unique_ptr<ByteSource>)> fn;
};

void RunChecks(Store& store, const std::vector<FileCheck>& checks,
               const ValidateOptions& options, ValidationReport& report) {
  struct Slot {
    bool missing = false;
    uint64_t size = 0;
    Status status;
  };
  std::vector<Slot> slots(checks.size());
  ThreadPool pool(options.num_threads > 0 ? static_cast<size_t>(options.num_threads) : 0);
  pool.ParallelFor(checks.size(), [&](size_t i) {
    Result<std::unique_ptr<ByteSource>> source = store.OpenRead(checks[i].rel);
    if (!source.ok()) {
      slots[i].missing = source.status().code() == StatusCode::kNotFound;
      slots[i].status = source.status();
      return;
    }
    slots[i].size = (*source)->size();
    slots[i].status = checks[i].fn(std::move(source).value());
  });
  for (size_t i = 0; i < checks.size(); ++i) {
    if (slots[i].missing) {
      report.problems.push_back("missing file: " + checks[i].rel);
      continue;
    }
    ++report.files_checked;
    report.bytes_checked += static_cast<int64_t>(slots[i].size);
    if (!slots[i].status.ok()) {
      report.problems.push_back(checks[i].rel + ": " + slots[i].status.ToString());
    }
  }
}

// ReadCheckpointMeta refuses uncommitted tags outright; the validator instead records the
// missing marker as a finding and keeps scanning, so fsck can still localize the damage
// inside an aborted save.
Result<CheckpointMeta> ReadMetaUngated(Store& store, const std::string& tag) {
  UCP_ASSIGN_OR_RETURN(std::string text,
                       store.ReadSmallFile(JoinRel(tag, "checkpoint_meta.json")));
  UCP_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return CheckpointMeta::FromJson(json);
}

// Every checkpoint tag under `dir` across all job namespaces (ascending by job id, then
// iteration). For fsck's store-wide sweep only: resume and retention stay namespace-scoped.
Result<std::vector<std::string>> ListAllCheckpointTags(const std::string& dir) {
  UCP_ASSIGN_OR_RETURN(std::vector<std::string> entries, ListDir(dir));
  std::vector<std::tuple<std::string, int64_t, std::string>> tagged;
  for (const std::string& name : entries) {
    std::string tag_job;
    int64_t iteration = 0;
    if (ParseTagName(name, &tag_job, &iteration) && DirExists(PathJoin(dir, name))) {
      tagged.emplace_back(tag_job, iteration, name);
    }
  }
  std::sort(tagged.begin(), tagged.end());
  std::vector<std::string> tags;
  tags.reserve(tagged.size());
  for (auto& [job, iteration, name] : tagged) {
    tags.push_back(std::move(name));
  }
  return tags;
}

}  // namespace

Result<ValidationReport> ValidateNativeCheckpoint(Store& store, const std::string& tag,
                                                  const ValidateOptions& options) {
  ValidationReport report;
  if (!IsTagComplete(store, tag)) {
    report.problems.push_back("missing 'complete' marker: the save of " + tag +
                              " never committed");
  }
  Result<CheckpointMeta> meta = ReadMetaUngated(store, tag);
  if (!meta.ok()) {
    report.problems.push_back("checkpoint_meta.json: " + meta.status().ToString());
    return report;
  }
  const ParallelConfig& s = meta->strategy;

  std::vector<FileCheck> checks;

  // Layouts must agree across each DP group; each optimizer check deposits its
  // padded_total here (indexed densely by (pp, sp, tp, dp)) for the post-pass below.
  // Distinct checks write distinct slots, so the parallel phase needs no locking.
  std::vector<int64_t> padded_totals(
      static_cast<size_t>(s.pp) * s.sp * s.tp * s.dp, -1);
  std::vector<std::string> optim_rels(padded_totals.size());

  for (int pp = 0; pp < s.pp; ++pp) {
    for (int sp = 0; sp < s.sp; ++sp) {
      for (int tp = 0; tp < s.tp; ++tp) {
        for (int dp = 0; dp < s.dp; ++dp) {
          size_t slot = static_cast<size_t>(((pp * s.sp + sp) * s.tp + tp) * s.dp + dp);
          std::string optim_rel = JoinRel(tag, OptimStatesFileName(dp, tp, pp, sp));
          optim_rels[slot] = optim_rel;
          int64_t* padded_out = &padded_totals[slot];
          checks.push_back({optim_rel, [&store, optim_rel, &s, &options,
                                        padded_out](std::unique_ptr<ByteSource> source) {
            UCP_ASSIGN_OR_RETURN(BundleInfo info, StatBundle(std::move(source)));
            const TensorFileInfo* fp32 = nullptr;
            for (const char* key : {"fp32_flat", "exp_avg", "exp_avg_sq"}) {
              const TensorFileInfo* found = nullptr;
              for (const auto& [name, entry] : info.entries) {
                if (name == key) {
                  found = &entry;
                  break;
                }
              }
              if (found == nullptr) {
                return DataLossError(std::string("missing tensor ") + key);
              }
              if (std::string(key) == "fp32_flat") {
                fp32 = found;
              }
            }
            if (!info.meta.Has("flat_layout")) {
              return DataLossError("missing flat_layout metadata");
            }
            UCP_ASSIGN_OR_RETURN(
                FlatLayout layout,
                FlatLayout::FromJson(info.meta.AsObject().at("flat_layout")));
            int64_t expected =
                s.zero_stage == 0 ? layout.padded_total : layout.partition_size;
            if (ShapeNumel(fp32->shape) != expected) {
              return DataLossError(StrFormat(
                  "fp32_flat has %lld elements, layout expects %lld",
                  static_cast<long long>(ShapeNumel(fp32->shape)),
                  static_cast<long long>(expected)));
            }
            *padded_out = layout.padded_total;
            if (options.deep) {
              UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> deep_source,
                                   store.OpenRead(optim_rel));
              return DeepVerifyBundleFile(std::move(deep_source));
            }
            return OkStatus();
          }});
        }
      }
    }
  }
  RunChecks(store, checks, options, report);

  // Cross-DP agreement post-pass, once every file has reported in.
  for (int pp = 0; pp < s.pp; ++pp) {
    for (int sp = 0; sp < s.sp; ++sp) {
      for (int tp = 0; tp < s.tp; ++tp) {
        int64_t group_total = -1;
        for (int dp = 0; dp < s.dp; ++dp) {
          size_t slot = static_cast<size_t>(((pp * s.sp + sp) * s.tp + tp) * s.dp + dp);
          if (padded_totals[slot] < 0) {
            continue;  // file was missing/damaged; already reported
          }
          if (group_total >= 0 && padded_totals[slot] != group_total) {
            report.problems.push_back(optim_rels[slot] +
                                      ": flat layout disagrees with DP peers");
          }
          group_total = padded_totals[slot];
        }
      }
    }
  }
  return report;
}

Result<ValidationReport> ValidateUcpCheckpoint(const std::string& ucp_dir,
                                               const ValidateOptions& options) {
  ValidationReport report;
  LocalStore store(ucp_dir);
  if (FileExists(PathJoin(ucp_dir, "checkpoint_meta.json")) && !IsTagComplete(store, "")) {
    report.problems.push_back("missing 'complete' marker: the conversion into " + ucp_dir +
                              " never committed");
  }
  Result<UcpMeta> meta = ReadUcpMeta(store, "");
  if (!meta.ok()) {
    report.problems.push_back("checkpoint_meta.json: " + meta.status().ToString());
    return report;
  }

  std::map<std::string, Shape> expected;
  for (const InventoryEntry& entry : BuildInventory(meta->model)) {
    expected[entry.param.name] = entry.param.full_shape;
  }

  std::vector<FileCheck> checks;
  std::map<std::string, bool> seen;
  for (const std::string& name : meta->atom_names) {
    seen[name] = true;
    auto it = expected.find(name);
    if (it == expected.end()) {
      report.problems.push_back("atom not in model inventory: " + name);
      continue;
    }
    const std::string rel = AtomRel("", name);
    const Shape* want = &it->second;
    checks.push_back({rel, [&store, rel, want,
                            &options](std::unique_ptr<ByteSource> source) -> Status {
      UCP_ASSIGN_OR_RETURN(BundleFileView view, OpenAtomView(std::move(source)));
      // OpenAtomView checked that the three members share one shape.
      const Shape& shape = view.entries()[0].second.shape;
      if (shape != *want) {
        return DataLossError("shape " + ShapeToString(shape) + " does not match inventory " +
                             ShapeToString(*want));
      }
      if (options.deep) {
        UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> deep_source, store.OpenRead(rel));
        return DeepVerifyBundleFile(std::move(deep_source));
      }
      return OkStatus();
    }});
  }
  RunChecks(store, checks, options, report);
  for (const auto& [name, shape] : expected) {
    if (!seen.count(name)) {
      report.problems.push_back("inventory parameter missing from UCP checkpoint: " + name);
    }
  }
  return report;
}

bool FsckReport::clean() const {
  if (!notes.empty()) {
    return false;
  }
  for (const Entry& entry : entries) {
    if (!entry.report.ok()) {
      return false;
    }
  }
  return true;
}

std::string FsckReport::ToString() const {
  std::string out;
  for (const Entry& entry : entries) {
    out += entry.name + ": " + entry.report.ToString();
    if (out.empty() || out.back() != '\n') {
      out += '\n';
    }
  }
  for (const std::string& note : notes) {
    out += "note: " + note + "\n";
  }
  for (const std::string& path : quarantined) {
    out += "quarantined: " + path + "\n";
  }
  out += clean() ? "fsck: CLEAN\n" : "fsck: PROBLEMS FOUND\n";
  return out;
}

std::string FsckReport::QuarantineSummary() const {
  int intact = 0;
  for (const Entry& entry : entries) {
    if (entry.report.ok()) {
      ++intact;
    }
  }
  std::string out = "fsck --quarantine: " + std::to_string(quarantined.size()) +
                    " quarantined";
  if (!quarantined.empty()) {
    out += " (";
    for (size_t i = 0; i < quarantined.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += quarantined[i];
    }
    out += ")";
  }
  if (quarantine_failures > 0) {
    out += ", " + std::to_string(quarantine_failures) + " failed";
  }
  out += "; " + std::to_string(intact) + " intact entr" + (intact == 1 ? "y" : "ies") +
         " remain" + (intact == 1 ? "s" : "");
  return out;
}

int FsckReport::ExitCode(bool quarantine_mode) const {
  if (!quarantine_mode) {
    return clean() ? 0 : 1;
  }
  if (clean() && quarantined.empty()) {
    return 0;
  }
  if (quarantine_failures > 0) {
    return 2;
  }
  bool any_damaged = false;
  bool any_intact = false;
  for (const Entry& entry : entries) {
    (entry.report.ok() ? any_intact : any_damaged) = true;
  }
  if (any_intact) {
    return 1;  // repaired: damage renamed aside, resumable state remains
  }
  // Only staging debris was cleaned up, or the directory held no entries at all.
  return any_damaged ? 2 : 1;
}

namespace {

// Any format: every UCP layout keeps its atoms under `atoms/`, which no checkpoint root has.
bool LooksLikeUcpDir(const std::string& path) { return DirExists(PathJoin(path, "atoms")); }

// Renames a damaged directory aside. The `.quarantined` suffix fails the tag-name parse
// behind Store::ListTags, so resumes stop considering it.
void QuarantineDir(const std::string& dir, FsckReport& out) {
  const std::string target = dir + ".quarantined";
  Status status = RemoveAll(target);
  if (status.ok()) {
    status = RenamePath(dir, target);
  }
  if (status.ok()) {
    out.quarantined.push_back(target);
  } else {
    ++out.quarantine_failures;
    out.notes.push_back("failed to quarantine " + dir + ": " + status.ToString());
  }
}

}  // namespace

Result<FsckReport> Fsck(const std::string& path, const FsckOptions& options) {
  if (!DirExists(path)) {
    return NotFoundError("no such directory: " + path);
  }
  const bool quarantine = options.quarantine;
  ValidateOptions vopts;
  vopts.deep = !options.fast;
  vopts.num_threads = options.num_threads;
  FsckReport out;

  // A UCP atom directory checks as one unit.
  if (LooksLikeUcpDir(path)) {
    UCP_ASSIGN_OR_RETURN(ValidationReport report, ValidateUcpCheckpoint(path, vopts));
    bool damaged = !report.ok();
    out.entries.push_back({path, std::move(report)});
    if (damaged && quarantine) {
      QuarantineDir(path, out);
    }
    return out;
  }

  // Checkpoint root: every tag across every job namespace, every cached <tag>.ucp dir, the
  // per-job `latest` pointers, and any staging debris left by a crashed save or conversion.
  LocalStore root(path);
  UCP_ASSIGN_OR_RETURN(std::vector<std::string> tags, ListAllCheckpointTags(path));
  for (const std::string& tag : tags) {
    UCP_ASSIGN_OR_RETURN(ValidationReport report, ValidateNativeCheckpoint(root, tag, vopts));
    bool damaged = !report.ok();
    out.entries.push_back({tag, std::move(report)});
    if (damaged && quarantine) {
      QuarantineDir(PathJoin(path, tag), out);
    }
  }

  UCP_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(path));
  for (const std::string& name : names) {
    const std::string child = PathJoin(path, name);
    if (EndsWith(name, ".ucp") && DirExists(child)) {
      UCP_ASSIGN_OR_RETURN(ValidationReport report, ValidateUcpCheckpoint(child, vopts));
      bool damaged = !report.ok();
      out.entries.push_back({name, std::move(report)});
      if (damaged && quarantine) {
        QuarantineDir(child, out);
      }
    } else if (EndsWith(name, ".staging") && DirExists(child)) {
      out.notes.push_back("stale staging dir (crashed save/conversion): " + name);
      if (quarantine) {
        // Staging trees are partial by construction — nothing in them is recoverable.
        Status status = RemoveAll(child);
        if (status.ok()) {
          out.quarantined.push_back(child + " (removed)");
          out.notes.pop_back();
        }
      }
    }
  }

  // Each job namespace gets its own pointer check: `latest` / `latest.<job>` must name a
  // committed tag, and a namespace with tags but no pointer is worth a note.
  std::set<std::string> jobs;
  for (const std::string& tag : tags) {
    std::string job;
    if (ParseTagName(tag, &job, nullptr)) {
      jobs.insert(job);
    }
  }
  for (const std::string& name : names) {
    // Pointer files can outlive their namespace's tags (all quarantined); check them too.
    if (name == "latest") {
      jobs.insert("");
    } else if (StartsWith(name, "latest.") && IsValidJobId(name.substr(7)) &&
               name.size() > 7) {
      jobs.insert(name.substr(7));
    }
  }
  for (const std::string& job : jobs) {
    const std::string pointer = LatestFileName(job);
    bool has_tags = false;
    for (const std::string& tag : tags) {
      std::string tag_job;
      if (ParseTagName(tag, &tag_job, nullptr) && tag_job == job) {
        has_tags = true;
        break;
      }
    }
    if (FileExists(PathJoin(path, pointer))) {
      Result<std::string> latest = ReadLatestTag(root, job);
      if (!latest.ok()) {
        out.notes.push_back(pointer + ": " + latest.status().ToString());
      } else if (!IsTagComplete(root, *latest)) {
        out.notes.push_back(pointer + " points at '" + *latest +
                            "', which is missing or uncommitted");
      }
    } else if (has_tags) {
      out.notes.push_back("checkpoint tags exist but there is no `" + pointer +
                          "` pointer");
    }
  }
  return out;
}

}  // namespace ucp
