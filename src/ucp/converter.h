// The Algorithm-1 driver: converts a native distributed checkpoint (or a foreign DDP-style
// checkpoint) into a UCP atom-checkpoint directory. Conversion is lazy and on-demand — it
// runs only when a strategy/hardware change is detected (or requested), so checkpoint
// *saving* carries zero extra cost (paper §3.1).

#ifndef UCP_SRC_UCP_CONVERTER_H_
#define UCP_SRC_UCP_CONVERTER_H_

#include <string>

#include "src/ucp/atom.h"
#include "src/ucp/ops.h"

namespace ucp {

struct ConvertOptions {
  // Worker threads for the Extract and Union phases (Table 2: more parallelism is faster
  // but more memory-intensive). 0 = run inline on the caller's thread.
  int num_threads = 4;
  // Override the pattern library (e.g. parsed from a user-written spec); nullptr selects
  // PatternLibrary::ForStrategy for the checkpoint's source strategy.
  const PatternLibrary* library = nullptr;
};

struct ConvertStats {
  int model_ranks_extracted = 0;
  int atoms_written = 0;
  double extract_seconds = 0.0;
  double union_seconds = 0.0;
  // Total size of the source shard files Extract opened, and of the UCP directory written
  // (also exported as the `convert.bytes_read` / `convert.bytes_written` counters).
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
};

// Native distributed checkpoint -> UCP. The source, checkpoint `tag`, is read through
// `source` (meta and every shard); the atoms are written into the local directory
// `ucp_dir`, which is created (it must not already hold a committed UCP checkpoint). The
// dir overload reads from a LocalStore on `ckpt_dir`.
Result<ConvertStats> ConvertToUcp(Store& source, const std::string& tag,
                                  const std::string& ucp_dir,
                                  const ConvertOptions& options = {});
Result<ConvertStats> ConvertToUcp(const std::string& ckpt_dir, const std::string& tag,
                                  const std::string& ucp_dir,
                                  const ConvertOptions& options = {});

// Foreign (DDP-style consolidated) checkpoint -> UCP. Every parameter is already
// consolidated, so each becomes an atom directly (pattern: unique_params).
Result<ConvertStats> ConvertForeignToUcp(const std::string& foreign_dir,
                                         const std::string& tag, const std::string& ucp_dir,
                                         const ConvertOptions& options = {});

}  // namespace ucp

#endif  // UCP_SRC_UCP_CONVERTER_H_
