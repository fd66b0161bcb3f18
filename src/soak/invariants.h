// The global store invariants the soak driver asserts after every schedule event.
//
// Faults are *expected* during a soak — the invariants therefore describe what must hold
// regardless of injected damage, with the injected-corruption count as the only permitted
// excuse for on-disk damage:
//
//   I1  No committed tag in the run's namespace is ahead of training progress (a "phantom"
//       tag would mean cross-namespace contamination or a forged commit).
//   I2  The newest resumable tag never regresses between checks unless a corruption fault
//       fired in between (GC keeps the newest; only damage may push resume backwards).
//   I3  Damaged committed tags never outnumber the corruption faults injected so far, and
//       with zero corruptions injected the newest committed tag deep-verifies bit-exactly.
//   I4  After a clean, resumed train segment the namespace holds no `.staging` debris
//       (crash debris is swept at resume; a leak here is an engine bug).
//   I5  The namespace's `latest` pointer, when present, names a tag of this namespace, and
//       never a tag that exists but was not committed.
//   I6, I7 were the chunk-index invariants of the retired incremental saves; the numbers
//       stay unused so logs keep meaning what they said.
//   I8  No committed tag is ever lost: every tag the driver has observed committed (minus
//       the ones GC legitimately removed) is still present with its complete marker. Wire
//       chaos — connection drops, daemon kill+restart — must never un-commit a tag.
//
// Checks are read-only and must run with no fault plan armed (the checker's own I/O would
// otherwise consume the plan).

#ifndef UCP_SRC_SOAK_INVARIANTS_H_
#define UCP_SRC_SOAK_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ucp {

struct SoakInvariantContext {
  std::string dir;
  std::string job;
  // Highest iteration any train segment has attempted so far (committed tags beyond it are
  // phantoms — I1).
  int64_t max_trained_iteration = 0;
  // Newest resumable iteration at the previous check; -1 before the first (I2).
  int64_t prev_latest_valid = -1;
  // Corruption plans (torn write / bit rot) that have fired over the whole run (I3) and
  // since the previous check (I2).
  int corruptions_fired_total = 0;
  bool corruption_since_last_check = false;
  // The driver sets this after a fault-free segment that resumed from a valid tag (I4).
  bool expect_no_staging = false;
  // Tags previously observed committed and not since removed by GC (I8): each must still
  // exist with its complete marker. The driver maintains this set from
  // `committed_tag_names` observations minus GC removals.
  std::vector<std::string> must_exist_tags;
};

struct SoakInvariantResult {
  std::vector<std::string> violations;  // empty = all invariants hold
  int checks_run = 0;

  // Observations, logged per event and fed back as the next check's context.
  int64_t latest_valid_iteration = -1;  // -1 when no resumable tag exists
  std::string latest_valid_tag;
  int committed_tags = 0;
  std::vector<std::string> committed_tag_names;  // the tags behind committed_tags (I8 feed)
  int damaged_tags = 0;  // committed tags failing deep validation, newest-first until clean
  int staging_dirs = 0;  // `.staging` entries owned by the namespace
};

SoakInvariantResult CheckSoakInvariants(const SoakInvariantContext& context);

}  // namespace ucp

#endif  // UCP_SRC_SOAK_INVARIANTS_H_
