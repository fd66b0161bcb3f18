// Checkpoint tag / file-name grammar and the staging-directory naming convention.
//
// Lives at the store layer (below the trainer-coupled checkpoint code) because both the
// direct-FS backend and ucp_serverd must agree on what a tag, a job namespace, and a
// staging sibling look like — the wire protocol ships tag names, never paths.

#ifndef UCP_SRC_STORE_TAGS_H_
#define UCP_SRC_STORE_TAGS_H_

#include <cstdint>
#include <string>

namespace ucp {

// Written last inside a tag directory; a tag without it is an aborted save.
inline constexpr char kCompleteMarker[] = "complete";
// Suffix of the sibling directory a save writes into before the commit rename.
inline constexpr char kStagingSuffix[] = ".staging";
// Suffix of the spool sibling where the daemon appends in-flight streamed uploads before
// WRITE_END verifies and moves them into the staging dir. Keeping partial bytes outside
// `.staging` means a commit can never publish a half-received file, while the spool
// survives connection drops and daemon restarts for WRITE_RESUME.
inline constexpr char kWipSuffix[] = ".wip";

// ---- Job namespaces --------------------------------------------------------------------
//
// Several training jobs may share one checkpoint store. Each job owns a tag namespace: the
// default job ("") keeps the historical `global_stepN` names and the plain `latest`
// pointer; job "j" tags are named `j.global_stepN` with a `latest.j` pointer. Every
// reader/retention/debris path is namespace-scoped, so one job's GC, staging sweep, or
// resume can never touch another job's files.

// Job ids are [A-Za-z0-9_-], 1..64 chars. The empty id names the default namespace and is
// also valid (it is every pre-multi-job caller).
bool IsValidJobId(const std::string& job);

// "" for the default job, "<job>." otherwise.
std::string JobTagPrefix(const std::string& job);

// "latest" for the default job, "latest.<job>" otherwise.
std::string LatestFileName(const std::string& job);

// Parses a directory-entry name as a checkpoint tag: `global_stepN` or
// `<job>.global_stepN`. Returns true and fills job/iteration on match. Names with extra
// suffixes (".staging", ".ucp", ".quarantined") never match.
bool ParseTagName(const std::string& name, std::string* job, int64_t* iteration);

// Tag helpers ("global_step123" / "jobA.global_step123").
std::string TagForIteration(int64_t iteration);
std::string TagForIteration(const std::string& job, int64_t iteration);

// Name of one rank's shard file, the only file a save writes per rank (shared with the UCP
// converter).
std::string OptimStatesFileName(int dp, int tp, int pp, int sp);

// Name of the staging sibling a save of `tag` writes into before committing.
std::string StagingDirForTag(const std::string& dir, const std::string& tag);

// Name of the spool sibling the daemon streams `tag`'s uploads into (kWipSuffix).
std::string WipDirForTag(const std::string& dir, const std::string& tag);

// Tag names cross the wire and become path components under the store root on the other
// side; this is the server's gate against traversal ("..", '/', empty, control bytes).
// Accepts anything ListDir could legitimately return for a tag-like entry.
bool IsSafeStoreName(const std::string& name);

// Relative paths inside a store ("<tag>/<file>"): every '/'-separated component must pass
// IsSafeStoreName.
bool IsSafeStoreRelPath(const std::string& rel);

}  // namespace ucp

#endif  // UCP_SRC_STORE_TAGS_H_
