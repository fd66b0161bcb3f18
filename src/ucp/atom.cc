#include "src/ucp/atom.h"

namespace ucp {
namespace {

// An older layout is refused up front, naming its version, so no atom of it is misread.
Status UnsupportedFormat(int64_t version) {
  return FailedPreconditionError("unsupported UCP format version " + std::to_string(version) +
                                 " (only version " + std::to_string(kUcpFormatVersion) +
                                 ", a store tag, is read; convert the source checkpoint again)");
}

}  // namespace

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
    return UnsupportedFormat(version);
  }
  if (!json.Has("model") || !json.Has("source_strategy")) {
    return DataLossError("UCP manifest missing model/source_strategy");
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
      return DataLossError("non-string atom name in the UCP manifest");
    }
    meta.atom_names.push_back(atom.AsString());
  }
  return meta;
}

std::string AtomRel(const std::string& ucp_rel, const std::string& param_name) {
  return JoinRel(ucp_rel, JoinRel("atoms", param_name));
}

Result<int64_t> WriteAtom(StoreWriter& writer, const ParamState& state) {
  TensorBundle atom;
  atom.Add(kAtomMembers[0], state.fp32);
  atom.Add(kAtomMembers[1], state.exp_avg);
  atom.Add(kAtomMembers[2], state.exp_avg_sq);
  atom.meta = Json(JsonObject{});
  UCP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, SerializeBundle(atom));
  UCP_RETURN_IF_ERROR(writer.WriteFile(AtomRel("", state.name), bytes));
  return static_cast<int64_t>(bytes.size());
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

Result<UcpMeta> ReadUcpMeta(Store& store, const std::string& ucp_rel) {
  Result<std::string> text = store.ReadSmallFile(JoinRel(ucp_rel, "checkpoint_meta.json"));
  if (!text.ok()) {
    // Format 2 kept its manifest in `ucp_meta.json` and committed outside the tag protocol.
    Result<bool> format2 = store.Exists(JoinRel(ucp_rel, "ucp_meta.json"));
    if (format2.ok() && *format2) {
      return UnsupportedFormat(2);
    }
    return text.status();
  }
  UCP_ASSIGN_OR_RETURN(Json json, Json::Parse(*text));
  return UcpMeta::FromJson(json);
}

}  // namespace ucp
