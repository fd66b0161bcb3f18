#include "src/ucp/atom.h"

#include "src/common/fs.h"

namespace ucp {

Json UcpMeta::ToJson() const {
  JsonObject obj;
  obj["model"] = model.ToJson();
  obj["source_strategy"] = source_strategy.ToJson();
  obj["iteration"] = iteration;
  obj["global_batch"] = global_batch;
  obj["data_seed"] = static_cast<int64_t>(data_seed);
  JsonArray atoms;
  for (const std::string& name : atom_names) {
    atoms.push_back(Json(name));
  }
  obj["atoms"] = Json(std::move(atoms));
  obj["format_version"] = kUcpFormatVersion;
  return Json(std::move(obj));
}

Result<UcpMeta> UcpMeta::FromJson(const Json& json) {
  UcpMeta meta;
  UCP_ASSIGN_OR_RETURN(int64_t version, json.GetInt("format_version"));
  if (version != kUcpFormatVersion) {
    return FailedPreconditionError(
        "unsupported UCP format version " + std::to_string(version) + " (only version " +
        std::to_string(kUcpFormatVersion) + ", one bundle file per atom, is read; convert " +
        "the source checkpoint again)");
  }
  if (!json.Has("model") || !json.Has("source_strategy")) {
    return DataLossError("ucp_meta.json missing model/source_strategy");
  }
  UCP_ASSIGN_OR_RETURN(meta.model, ModelConfig::FromJson(json.AsObject().at("model")));
  UCP_ASSIGN_OR_RETURN(meta.source_strategy,
                       ParallelConfig::FromJson(json.AsObject().at("source_strategy")));
  UCP_ASSIGN_OR_RETURN(meta.iteration, json.GetInt("iteration"));
  UCP_ASSIGN_OR_RETURN(int64_t batch, json.GetInt("global_batch"));
  meta.global_batch = static_cast<int>(batch);
  UCP_ASSIGN_OR_RETURN(int64_t seed, json.GetInt("data_seed"));
  meta.data_seed = static_cast<uint64_t>(seed);
  UCP_ASSIGN_OR_RETURN(const JsonArray* atoms, json.GetArray("atoms"));
  for (const Json& atom : *atoms) {
    if (!atom.is_string()) {
      return DataLossError("non-string atom name in ucp_meta.json");
    }
    meta.atom_names.push_back(atom.AsString());
  }
  return meta;
}

std::string AtomPath(const std::string& ucp_dir, const std::string& param_name) {
  // Parameter names are dot-separated identifiers — already filesystem-safe.
  return PathJoin(PathJoin(ucp_dir, "atoms"), param_name);
}

std::string AtomRel(const std::string& ucp_rel, const std::string& param_name) {
  return JoinRel(ucp_rel, JoinRel("atoms", param_name));
}

Status WriteAtom(const std::string& ucp_dir, const ParamState& state) {
  UCP_RETURN_IF_ERROR(MakeDirs(PathJoin(ucp_dir, "atoms")));
  TensorBundle atom;
  atom.Add(kAtomMembers[0], state.fp32);
  atom.Add(kAtomMembers[1], state.exp_avg);
  atom.Add(kAtomMembers[2], state.exp_avg_sq);
  atom.meta = Json(JsonObject{});
  return SaveBundle(AtomPath(ucp_dir, state.name), atom);
}

Result<BundleFileView> OpenAtomView(std::unique_ptr<ByteSource> source) {
  UCP_ASSIGN_OR_RETURN(BundleFileView view, BundleFileView::Open(std::move(source)));
  const auto& entries = view.entries();
  if (entries.size() != 3 || entries[0].first != kAtomMembers[0] ||
      entries[1].first != kAtomMembers[1] || entries[2].first != kAtomMembers[2]) {
    std::string names;
    for (const auto& entry : entries) {
      names += (names.empty() ? "" : ", ") + entry.first;
    }
    return DataLossError("atom file " + view.path() + " holds members [" + names +
                         "], expected [fp32, exp_avg, exp_avg_sq]");
  }
  if (entries[1].second.shape != entries[0].second.shape ||
      entries[2].second.shape != entries[0].second.shape) {
    return DataLossError("atom members of " + view.path() + " have inconsistent shapes");
  }
  return view;
}

Result<ParamState> ReadAtom(Store& store, const std::string& ucp_rel,
                            const std::string& param_name) {
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source,
                       store.OpenRead(AtomRel(ucp_rel, param_name)));
  UCP_ASSIGN_OR_RETURN(BundleFileView view, OpenAtomView(std::move(source)));
  ParamState state;
  state.name = param_name;
  Tensor* states[3] = {&state.fp32, &state.exp_avg, &state.exp_avg_sq};
  for (int s = 0; s < 3; ++s) {
    UCP_ASSIGN_OR_RETURN(*states[s], view.ReadTensor(kAtomMembers[s]));
  }
  return state;
}

Status WriteUcpMeta(const std::string& ucp_dir, const UcpMeta& meta) {
  return WriteFileAtomic(PathJoin(ucp_dir, "ucp_meta.json"), meta.ToJson().Dump(2));
}

bool IsUcpComplete(Store& store, const std::string& ucp_rel) {
  Result<bool> meta = store.Exists(JoinRel(ucp_rel, "ucp_meta.json"));
  Result<bool> marker = store.Exists(JoinRel(ucp_rel, "complete"));
  return meta.ok() && *meta && marker.ok() && *marker;
}

Result<UcpMeta> ReadUcpMeta(Store& store, const std::string& ucp_rel) {
  UCP_ASSIGN_OR_RETURN(std::string text,
                       store.ReadSmallFile(JoinRel(ucp_rel, "ucp_meta.json")));
  UCP_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return UcpMeta::FromJson(json);
}

}  // namespace ucp
