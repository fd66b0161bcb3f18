#include "src/ucp/converter.h"

#include <chrono>
#include <map>
#include <mutex>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/foreign.h"
#include "src/common/fs.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor_file.h"

namespace ucp {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Conversion writes every atom into a `.staging` sibling; only a fully-written tree is
// renamed to `ucp_dir` (marker last). A failed or crashed conversion leaves no partial
// `ucp_dir`, so a retry never trips the AlreadyExists guard.
Result<std::string> BeginUcpStaging(const std::string& ucp_dir) {
  LocalStore existing(ucp_dir);
  if (IsUcpComplete(existing, "")) {
    return AlreadyExistsError("UCP checkpoint already exists at " + ucp_dir);
  }
  // An unmarked ucp_dir is debris of an interrupted conversion — replace it.
  UCP_RETURN_IF_ERROR(RemoveAll(ucp_dir));
  const std::string staging = ucp_dir + ".staging";
  UCP_RETURN_IF_ERROR(RemoveAll(staging));
  UCP_RETURN_IF_ERROR(MakeDirs(staging));
  return staging;
}

Status CommitUcpStaging(const std::string& staging, const std::string& ucp_dir) {
  UCP_RETURN_IF_ERROR(RenamePath(staging, ucp_dir));
  return WriteFileAtomic(PathJoin(ucp_dir, "complete"), "ucp");
}

// The whole conversion, writing into `staging`. Errors may leave `staging` partially
// populated; the caller removes it.
Result<ConvertStats> ConvertToUcpImpl(Store& source, const std::string& tag,
                                      const std::string& staging,
                                      const ConvertOptions& options) {
  const std::string& ucp_dir = staging;
  UCP_ASSIGN_OR_RETURN(CheckpointMeta meta, ReadCheckpointMeta(source, tag));
  const ParallelConfig& src = meta.strategy;

  PatternLibrary default_library = PatternLibrary::ForStrategy(meta.model, src);
  const PatternLibrary& library =
      options.library != nullptr ? *options.library : default_library;

  std::vector<InventoryEntry> inventory = BuildInventory(meta.model);
  std::map<std::string, Shape> full_shapes;
  for (const InventoryEntry& entry : inventory) {
    full_shapes[entry.param.name] = entry.param.full_shape;
  }

  ConvertStats stats;
  ThreadPool pool(static_cast<size_t>(options.num_threads));

  // ---- Extract phase: parallel over model-parallel ranks (Algorithm 1, lines 1-6) ----
  auto extract_start = std::chrono::steady_clock::now();
  struct ModelRank {
    int tp, pp, sp;
  };
  std::vector<ModelRank> model_ranks;
  for (int pp = 0; pp < src.pp; ++pp) {
    for (int sp = 0; sp < src.sp; ++sp) {
      for (int tp = 0; tp < src.tp; ++tp) {
        model_ranks.push_back({tp, pp, sp});
      }
    }
  }

  std::mutex mu;
  std::map<std::string, std::vector<ShardContribution>> contributions;
  int64_t steps_taken = 0;
  Status first_error = OkStatus();

  {
    UCP_TRACE_SPAN_ARGS(
        "convert.extract_phase",
        ::ucp::obs::TraceArgs().I("model_ranks", static_cast<int64_t>(model_ranks.size())));
    pool.ParallelFor(model_ranks.size(), [&](size_t i) {
      const ModelRank& mr = model_ranks[i];
      Result<ExtractedRank> extracted = Extract(source, tag, src, mr.tp, mr.pp, mr.sp);
      std::lock_guard<std::mutex> lock(mu);
      if (!extracted.ok()) {
        if (first_error.ok()) {
          first_error = extracted.status();
        }
        return;
      }
      steps_taken = extracted->steps_taken;
      stats.bytes_read += extracted->bytes_read;
      for (ParamState& state : extracted->params) {
        ShardContribution contribution;
        contribution.coord = extracted->coord;
        contribution.state = std::move(state);
        contributions[contribution.state.name].push_back(std::move(contribution));
      }
      ++stats.model_ranks_extracted;
    });
  }
  if (!first_error.ok()) {
    return first_error;
  }
  stats.extract_seconds = SecondsSince(extract_start);

  // ---- Union phase: parallel over parameters (Algorithm 1, lines 7-21) ----
  auto union_start = std::chrono::steady_clock::now();
  std::vector<std::string> names;
  names.reserve(contributions.size());
  for (const auto& [name, unused] : contributions) {
    names.push_back(name);
  }

  std::vector<std::string> atom_names(names.size());
  {
    UCP_TRACE_SPAN_ARGS("convert.union_phase", ::ucp::obs::TraceArgs().I(
                                                   "params", static_cast<int64_t>(names.size())));
    pool.ParallelFor(names.size(), [&](size_t i) {
      const std::string& name = names[i];
      auto shape_it = full_shapes.find(name);
      Result<PatternRule> rule = library.Match(name);
      Status status = OkStatus();
      if (shape_it == full_shapes.end()) {
        status = DataLossError("checkpoint contains unknown parameter: " + name);
      } else if (!rule.ok()) {
        status = rule.status();
      } else {
        Result<ParamState> merged =
            UnionParam(*rule, shape_it->second, std::move(contributions[name]), src.tp);
        if (!merged.ok()) {
          status = merged.status();
        } else {
          status = WriteAtom(ucp_dir, *merged);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      if (!status.ok()) {
        if (first_error.ok()) {
          first_error = status;
        }
        return;
      }
      atom_names[i] = name;
      ++stats.atoms_written;
    });
  }
  if (!first_error.ok()) {
    return first_error;
  }
  stats.union_seconds = SecondsSince(union_start);
  stats.bytes_written = static_cast<int64_t>(DirBytes(ucp_dir));

  // ---- Manifest ----
  UcpMeta ucp_meta;
  ucp_meta.model = meta.model;
  ucp_meta.source_strategy = src;
  ucp_meta.iteration = steps_taken;
  ucp_meta.global_batch = meta.global_batch;
  ucp_meta.data_seed = meta.data_seed;
  ucp_meta.atom_names = atom_names;
  UCP_RETURN_IF_ERROR(WriteUcpMeta(ucp_dir, ucp_meta));
  return stats;
}

Result<ConvertStats> ConvertForeignToUcpImpl(const std::string& foreign_dir,
                                             const std::string& tag,
                                             const std::string& staging,
                                             const ConvertOptions& options) {
  const std::string& ucp_dir = staging;
  UCP_ASSIGN_OR_RETURN(ForeignMeta meta, ReadForeignMeta(foreign_dir, tag));
  UCP_ASSIGN_OR_RETURN(
      TensorBundle bundle,
      LoadBundle(PathJoin(PathJoin(foreign_dir, tag), "state_rank0.bundle")));

  ConvertStats stats;
  ThreadPool pool(static_cast<size_t>(options.num_threads));

  // Collect parameter names ("model.<name>" entries).
  std::vector<std::string> names;
  for (const auto& [key, unused] : bundle.tensors) {
    if (key.rfind("model.", 0) == 0) {
      names.push_back(key.substr(6));
    }
  }

  auto start = std::chrono::steady_clock::now();
  std::mutex mu;
  Status first_error = OkStatus();
  pool.ParallelFor(names.size(), [&](size_t i) {
    const std::string& name = names[i];
    const Tensor* fp32 = bundle.Find("model." + name);
    const Tensor* m = bundle.Find("optim.exp_avg." + name);
    const Tensor* v = bundle.Find("optim.exp_avg_sq." + name);
    Status status = OkStatus();
    if (fp32 == nullptr || m == nullptr || v == nullptr) {
      status = DataLossError("foreign checkpoint missing state for " + name);
    } else {
      ParamState state;
      state.name = name;
      state.fp32 = fp32->Clone();
      state.exp_avg = m->Clone();
      state.exp_avg_sq = v->Clone();
      status = WriteAtom(ucp_dir, state);
    }
    std::lock_guard<std::mutex> lock(mu);
    if (!status.ok()) {
      if (first_error.ok()) {
        first_error = status;
      }
      return;
    }
    ++stats.atoms_written;
  });
  if (!first_error.ok()) {
    return first_error;
  }
  stats.union_seconds = SecondsSince(start);

  UcpMeta ucp_meta;
  ucp_meta.model = meta.model;
  ucp_meta.source_strategy = ParallelConfig{};  // consolidated source: tp=pp=dp=sp=1
  ucp_meta.iteration = meta.iteration;
  ucp_meta.global_batch = meta.global_batch;
  ucp_meta.data_seed = meta.data_seed;
  ucp_meta.atom_names = names;
  UCP_RETURN_IF_ERROR(WriteUcpMeta(ucp_dir, ucp_meta));
  return stats;
}

// The per-call ConvertStats return stays the API; the registry accumulates across calls so
// `ucp_tool metrics` and bench snapshots see conversion work without threading the struct.
void PublishConvertStats(const ConvertStats& stats) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter& runs = reg.GetCounter("convert.runs");
  static obs::Counter& atoms = reg.GetCounter("convert.atoms_written");
  static obs::Counter& ranks = reg.GetCounter("convert.model_ranks_extracted");
  static obs::Counter& bytes_read = reg.GetCounter("convert.bytes_read");
  static obs::Counter& bytes_written = reg.GetCounter("convert.bytes_written");
  static obs::Histogram& extract_s = reg.GetHistogram("convert.extract_seconds");
  static obs::Histogram& union_s = reg.GetHistogram("convert.union_seconds");
  runs.Add(1);
  atoms.Add(static_cast<uint64_t>(stats.atoms_written));
  ranks.Add(static_cast<uint64_t>(stats.model_ranks_extracted));
  bytes_read.Add(static_cast<uint64_t>(stats.bytes_read));
  bytes_written.Add(static_cast<uint64_t>(stats.bytes_written));
  extract_s.Observe(stats.extract_seconds);
  union_s.Observe(stats.union_seconds);
}

}  // namespace

Result<ConvertStats> ConvertToUcp(Store& source, const std::string& tag,
                                  const std::string& ucp_dir,
                                  const ConvertOptions& options) {
  UCP_TRACE_SPAN_ARGS("convert.to_ucp", ::ucp::obs::TraceArgs().S("tag", tag));
  UCP_ASSIGN_OR_RETURN(std::string staging, BeginUcpStaging(ucp_dir));
  Result<ConvertStats> stats = ConvertToUcpImpl(source, tag, staging, options);
  if (!stats.ok()) {
    RemoveAll(staging).ok();  // best effort: leave no debris, keep the retry path clean
    return stats.status();
  }
  UCP_RETURN_IF_ERROR(CommitUcpStaging(staging, ucp_dir));
  PublishConvertStats(*stats);
  UCP_LOG(Info) << "converted " << tag << " from " << source.Describe() << " -> " << ucp_dir
                << " (" << stats->atoms_written << " atoms, extract "
                << stats->extract_seconds << "s, union " << stats->union_seconds << "s)";
  return stats;
}

Result<ConvertStats> ConvertToUcp(const std::string& ckpt_dir, const std::string& tag,
                                  const std::string& ucp_dir,
                                  const ConvertOptions& options) {
  LocalStore source(ckpt_dir);
  return ConvertToUcp(source, tag, ucp_dir, options);
}

Result<ConvertStats> ConvertForeignToUcp(const std::string& foreign_dir,
                                         const std::string& tag, const std::string& ucp_dir,
                                         const ConvertOptions& options) {
  UCP_TRACE_SPAN_ARGS("convert.foreign_to_ucp", ::ucp::obs::TraceArgs().S("tag", tag));
  UCP_ASSIGN_OR_RETURN(std::string staging, BeginUcpStaging(ucp_dir));
  Result<ConvertStats> stats = ConvertForeignToUcpImpl(foreign_dir, tag, staging, options);
  if (!stats.ok()) {
    RemoveAll(staging).ok();
    return stats.status();
  }
  UCP_RETURN_IF_ERROR(CommitUcpStaging(staging, ucp_dir));
  PublishConvertStats(*stats);
  return stats;
}

}  // namespace ucp
