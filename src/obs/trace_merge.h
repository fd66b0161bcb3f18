// Stitches a client-side and a server-side Chrome trace export into one merged trace.
//
// The two halves of a distributed operation are recorded in two processes: RemoteStore's
// rings hold the client spans (with hex trace_id/span_id args, src/obs/trace.h) and the
// daemon's rings hold the server handling spans, parented under the client RPC spans via
// the trace context a wire v6 request frame carries. Each process exports its own
// ExportChromeTraceJson/flight-record file; MergeChromeTraces joins them:
//
//  - server process ids are offset past the client's so the two processes render as
//    distinct track groups (process_name metadata is prefixed "client: " / "server: ");
//  - server timestamps are aligned to the client clock using the first (client RPC span,
//    server handling span) pair matched by span ids — the two processes have independent
//    trace epochs, so absolute timestamps are otherwise incomparable. A server half whose
//    matched span already lies inside its parent span's interval is assumed to share the
//    client's epoch (a single-process split, as in tests) and is not shifted;
//  - every server span whose (trace_id, parent_span_id) args name a client span gets a
//    flow-event triple (ph "s" at the client span start, "t" at the server span start,
//    "f" at the client span end) so Perfetto draws request -> handling -> reply arrows.
//
// `ucp_tool trace-merge <client.json> <server.json>` is the CLI wrapper.
//
// Unlike the rest of src/obs (standard library only), this layer parses JSON and so links
// src/common — it lives in its own ucp_obs_merge target to keep the ucp_obs -> ucp_common
// layering acyclic.

#ifndef UCP_SRC_OBS_TRACE_MERGE_H_
#define UCP_SRC_OBS_TRACE_MERGE_H_

#include <cstddef>
#include <string>

#include "src/common/status.h"

namespace ucp {
namespace obs {

struct TraceMergeStats {
  size_t client_events = 0;
  size_t server_events = 0;
  size_t flow_links = 0;  // server spans linked to a client parent span
};

// Merges two Chrome trace JSON documents ({"traceEvents":[...]}) into one, returned as
// JSON text. Events that don't participate in any cross-process link pass through
// unchanged (apart from the server pid offset / time alignment).
Result<std::string> MergeChromeTraces(const std::string& client_json,
                                      const std::string& server_json,
                                      TraceMergeStats* stats = nullptr);

}  // namespace obs
}  // namespace ucp

#endif  // UCP_SRC_OBS_TRACE_MERGE_H_
