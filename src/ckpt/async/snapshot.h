// Host-side snapshot of one rank's checkpoint state — the part of an asynchronous save
// that must happen while the rank is paused. A snapshot deep-copies the rank's optimizer
// partition into buffers owned by the snapshot itself, so the training step that follows
// can mutate the live tensors freely while a background flusher serializes the copy.
// CaptureFrom reuses the previous capture's buffers when shapes match, so in steady state
// (the engine's double-buffered freelist) a snapshot is pure memcpy: no allocation, no
// serialization, no I/O.

#ifndef UCP_SRC_CKPT_ASYNC_SNAPSHOT_H_
#define UCP_SRC_CKPT_ASYNC_SNAPSHOT_H_

#include <string>
#include <vector>

#include "src/runtime/trainer.h"
#include "src/store/store.h"
#include "src/tensor/tensor_file.h"

namespace ucp {

struct RankCheckpointSnapshot {
  RankCoord coord;
  // Exactly what the rank's shard file carries (same names/meta as the synchronous save).
  TensorBundle optim;
  // Captured fp32 payload bytes — for stats.
  int64_t bytes = 0;

  // Copies the rank's current state into this snapshot, reusing existing buffers when the
  // layout is unchanged. Blocks only for the host-to-host copy.
  void CaptureFrom(const RankTrainer& trainer);
};

// The serialized shard file of a snapshot: the store-relative name and the exact bytes the
// synchronous save would have written.
struct SnapshotShard {
  std::string rel;
  std::vector<uint8_t> bytes;
};

// Serializes a captured snapshot into its shard file (the standard optim_states name, same
// bytes as the synchronous save) without touching any store.
Result<SnapshotShard> SerializeSnapshotShards(const RankCheckpointSnapshot& snap);

// Serializes one captured snapshot into a store's staged tag under the standard shard file
// name. Shared by the synchronous save path and the async flusher; no collectives. The
// shard bytes are built in memory (SerializeSnapshotShards) and handed to the writer — the
// local backend does the same tmp-write/fsync/rename it always did, the remote backend
// streams them to ucp_serverd.
Status WriteSnapshotShards(StoreWriter& writer, const RankCheckpointSnapshot& snap);

}  // namespace ucp

#endif  // UCP_SRC_CKPT_ASYNC_SNAPSHOT_H_
