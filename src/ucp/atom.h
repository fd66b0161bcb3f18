// Atom checkpoints (paper §3.1): the consolidated, strategy-agnostic representation. One
// bundle file per parameter (src/tensor/tensor_file.h) holding exactly three members — the
// fp32 weights and the two Adam moments, in that order, each with the full shape — and an
// empty JSON meta:
//
//   <ucp_dir>/ucp_meta.json            (format_version 2)
//   <ucp_dir>/atoms/<param_name>       members fp32, exp_avg, exp_avg_sq
//   <ucp_dir>/complete                 the converter's commit marker, written last

#ifndef UCP_SRC_UCP_ATOM_H_
#define UCP_SRC_UCP_ATOM_H_

#include <string>
#include <vector>

#include "src/model/config.h"
#include "src/parallel/topology.h"
#include "src/store/store.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_file.h"

namespace ucp {

// The fp32 training state of one parameter (consolidated, or one rank's shard of it).
struct ParamState {
  std::string name;
  Tensor fp32;
  Tensor exp_avg;
  Tensor exp_avg_sq;
};

// ucp_meta.json's format_version: 2 is the layout above. UcpMeta::FromJson refuses any other
// version with kFailedPrecondition naming it, so a directory in an older layout fails
// before any atom is opened.
inline constexpr int64_t kUcpFormatVersion = 2;

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

// The atom members, in file order: a member's index is its state's index.
inline constexpr const char* kAtomMembers[3] = {"fp32", "exp_avg", "exp_avg_sq"};

std::string AtomPath(const std::string& ucp_dir, const std::string& param_name);

// Store-relative sibling of AtomPath: the atom file of `param_name` inside the UCP
// checkpoint at `ucp_rel` ("" = the store root). Same layout either way.
std::string AtomRel(const std::string& ucp_rel, const std::string& param_name);

// Writes one atom: one bundle, one fsync, one rename. Thread-safe across distinct params.
Status WriteAtom(const std::string& ucp_dir, const ParamState& state);

// Opens an atom file and checks that it holds exactly kAtomMembers, in order, all of one
// shape; kDataLoss otherwise, so a damaged atom is never read as zeros. Reads only the
// header (verified by its CRC).
Result<BundleFileView> OpenAtomView(std::unique_ptr<ByteSource> source);

// The readers take the UCP checkpoint at `ucp_rel` inside `store` ("" = the store root, so
// a LocalStore on a UCP directory reads that directory).

// Whole atom, read through one chunk-verified view: the header and every payload chunk are
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
