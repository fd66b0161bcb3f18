// Atom checkpoints (paper §3.1): the consolidated, strategy-agnostic representation. One
// directory per parameter holding three single-tensor files — fp32 weights and the two Adam
// moments — whose headers carry the full shape:
//
//   <ucp_dir>/ucp_meta.json
//   <ucp_dir>/atoms/<param_name>/fp32
//   <ucp_dir>/atoms/<param_name>/exp_avg
//   <ucp_dir>/atoms/<param_name>/exp_avg_sq

#ifndef UCP_SRC_UCP_ATOM_H_
#define UCP_SRC_UCP_ATOM_H_

#include <string>
#include <vector>

#include "src/model/config.h"
#include "src/parallel/topology.h"
#include "src/store/store.h"
#include "src/tensor/tensor.h"

namespace ucp {

// The fp32 training state of one parameter (consolidated, or one rank's shard of it).
struct ParamState {
  std::string name;
  Tensor fp32;
  Tensor exp_avg;
  Tensor exp_avg_sq;
};

struct UcpMeta {
  ModelConfig model;
  ParallelConfig source_strategy;
  int64_t iteration = 0;
  int global_batch = 0;
  uint64_t data_seed = 0;
  std::vector<std::string> atom_names;

  Json ToJson() const;
  static Result<UcpMeta> FromJson(const Json& json);
};

std::string AtomDir(const std::string& ucp_dir, const std::string& param_name);

// Store-relative sibling of AtomDir: the atom directory of `param_name` inside the UCP
// checkpoint at `ucp_rel` ("" = the store root). Same layout either way.
std::string AtomRel(const std::string& ucp_rel, const std::string& param_name);

// Writes one atom (three tensor files). Thread-safe across distinct params.
Status WriteAtom(const std::string& ucp_dir, const ParamState& state);

// The readers take the UCP checkpoint at `ucp_rel` inside `store` ("" = the store root, so
// a LocalStore on a UCP directory reads that directory).

// Whole atom, read through chunk-verified views: the header and every payload chunk are
// CRC-checked, the trailing whole-file CRC is not (deep fsck checks it).
Result<ParamState> ReadAtom(Store& store, const std::string& ucp_rel,
                            const std::string& param_name);

Status WriteUcpMeta(const std::string& ucp_dir, const UcpMeta& meta);
Result<UcpMeta> ReadUcpMeta(Store& store, const std::string& ucp_rel);

// True when the UCP dir carries both its metadata and the `complete` commit marker the
// converter drops last. A dir without the marker is an aborted conversion.
bool IsUcpComplete(Store& store, const std::string& ucp_rel);

}  // namespace ucp

#endif  // UCP_SRC_UCP_ATOM_H_
