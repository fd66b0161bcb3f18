#include "src/ucp/atom.h"

#include "src/common/fs.h"
#include "src/tensor/tensor_file.h"

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
  obj["format_version"] = 1;
  return Json(std::move(obj));
}

Result<UcpMeta> UcpMeta::FromJson(const Json& json) {
  UcpMeta meta;
  UCP_ASSIGN_OR_RETURN(int64_t version, json.GetInt("format_version"));
  if (version != 1) {
    return FailedPreconditionError("unsupported UCP format version " +
                                   std::to_string(version));
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

std::string AtomDir(const std::string& ucp_dir, const std::string& param_name) {
  // Parameter names are dot-separated identifiers — already filesystem-safe.
  return PathJoin(PathJoin(ucp_dir, "atoms"), param_name);
}

std::string AtomRel(const std::string& ucp_rel, const std::string& param_name) {
  return JoinRel(ucp_rel, JoinRel("atoms", param_name));
}

namespace {

// Whole-tensor read through a Store's positional source.
Result<Tensor> LoadTensorFromStore(Store& store, const std::string& rel) {
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source, store.OpenRead(rel));
  UCP_ASSIGN_OR_RETURN(TensorFileView view, TensorFileView::Open(std::move(source)));
  Tensor t = Tensor::Zeros(view.info().shape);
  UCP_RETURN_IF_ERROR(view.ReadElements(0, t.numel(), t.data()));
  return t;
}

}  // namespace

Status WriteAtom(const std::string& ucp_dir, const ParamState& state) {
  const std::string dir = AtomDir(ucp_dir, state.name);
  UCP_RETURN_IF_ERROR(MakeDirs(dir));
  UCP_RETURN_IF_ERROR(SaveTensor(PathJoin(dir, "fp32"), state.fp32));
  UCP_RETURN_IF_ERROR(SaveTensor(PathJoin(dir, "exp_avg"), state.exp_avg));
  return SaveTensor(PathJoin(dir, "exp_avg_sq"), state.exp_avg_sq);
}

Result<ParamState> ReadAtom(Store& store, const std::string& ucp_rel,
                            const std::string& param_name) {
  const std::string dir = AtomRel(ucp_rel, param_name);
  ParamState state;
  state.name = param_name;
  UCP_ASSIGN_OR_RETURN(state.fp32, LoadTensorFromStore(store, JoinRel(dir, "fp32")));
  UCP_ASSIGN_OR_RETURN(state.exp_avg, LoadTensorFromStore(store, JoinRel(dir, "exp_avg")));
  UCP_ASSIGN_OR_RETURN(state.exp_avg_sq,
                       LoadTensorFromStore(store, JoinRel(dir, "exp_avg_sq")));
  if (!state.fp32.SameShape(state.exp_avg) || !state.fp32.SameShape(state.exp_avg_sq)) {
    return DataLossError("atom tensors of " + param_name + " have inconsistent shapes");
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
