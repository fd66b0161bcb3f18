#include "src/soak/schedule.h"

#include <algorithm>
#include <set>

#include "src/common/rng.h"

namespace ucp {
namespace {

// Distinct CounterRng stream for schedule generation, so soak draws never collide with the
// trainer's data/init streams even under the same seed.
constexpr uint64_t kScheduleStream = 0x534f414bULL;  // "SOAK"

const char* FaultKindName(FaultPlan::Kind kind) {
  switch (kind) {
    case FaultPlan::Kind::kFailStop: return "fail_stop";
    case FaultPlan::Kind::kTornWrite: return "torn_write";
    case FaultPlan::Kind::kBitRot: return "bit_rot";
    case FaultPlan::Kind::kTransient: return "transient";
  }
  return "?";
}

Result<FaultPlan::Kind> FaultKindFromName(const std::string& name) {
  if (name == "fail_stop") return FaultPlan::Kind::kFailStop;
  if (name == "torn_write") return FaultPlan::Kind::kTornWrite;
  if (name == "bit_rot") return FaultPlan::Kind::kBitRot;
  if (name == "transient") return FaultPlan::Kind::kTransient;
  return InvalidArgumentError("unknown fault kind: " + name);
}

const char* FsOpJsonName(FsOp op) {
  switch (op) {
    case FsOp::kWrite: return "write";
    case FsOp::kFsync: return "fsync";
    case FsOp::kRename: return "rename";
    case FsOp::kRead: return "read";
  }
  return "?";
}

Result<FsOp> FsOpFromName(const std::string& name) {
  if (name == "write") return FsOp::kWrite;
  if (name == "fsync") return FsOp::kFsync;
  if (name == "rename") return FsOp::kRename;
  if (name == "read") return FsOp::kRead;
  return InvalidArgumentError("unknown fs op: " + name);
}

// Path substrings a generated fault may target. Deliberately excludes the `latest` pointer
// and the commit rename of the tag directory itself: those legitimately break invariants
// the driver asserts (a torn `latest` is indistinguishable from cross-namespace
// contamination), while shard/metadata damage exercises exactly the fallback paths the
// soak is after.
const char* const kFaultTargets[] = {"_model_states", "_optim_states", "checkpoint_meta"};

}  // namespace

Json SoakOptions::ToJson() const {
  JsonObject o;
  o["seed"] = seed;
  o["num_blocks"] = num_blocks;
  o["max_train_iters"] = max_train_iters;
  o["max_kills"] = max_kills;
  o["strategy"] = strategy.ToJson();
  o["global_batch"] = global_batch;
  o["checkpoint_every"] = checkpoint_every;
  o["watchdog_ms"] = watchdog_ms;
  o["job"] = job;
  o["through_daemon"] = through_daemon;
  return Json(std::move(o));
}

Result<SoakOptions> SoakOptions::FromJson(const Json& json) {
  if (!json.is_object()) return InvalidArgumentError("soak options: not an object");
  SoakOptions options;
  UCP_ASSIGN_OR_RETURN(int64_t seed, json.GetInt("seed"));
  options.seed = static_cast<uint64_t>(seed);
  UCP_ASSIGN_OR_RETURN(int64_t blocks, json.GetInt("num_blocks"));
  options.num_blocks = static_cast<int>(blocks);
  UCP_ASSIGN_OR_RETURN(int64_t iters, json.GetInt("max_train_iters"));
  options.max_train_iters = static_cast<int>(iters);
  UCP_ASSIGN_OR_RETURN(int64_t kills, json.GetInt("max_kills"));
  options.max_kills = static_cast<int>(kills);
  if (!json.Has("strategy")) return InvalidArgumentError("soak options: missing strategy");
  UCP_ASSIGN_OR_RETURN(options.strategy,
                       ParallelConfig::FromJson(json.AsObject().at("strategy")));
  UCP_ASSIGN_OR_RETURN(int64_t batch, json.GetInt("global_batch"));
  options.global_batch = static_cast<int>(batch);
  UCP_ASSIGN_OR_RETURN(int64_t every, json.GetInt("checkpoint_every"));
  options.checkpoint_every = static_cast<int>(every);
  UCP_ASSIGN_OR_RETURN(int64_t watchdog, json.GetInt("watchdog_ms"));
  options.watchdog_ms = static_cast<int>(watchdog);
  UCP_ASSIGN_OR_RETURN(options.job, json.GetString("job"));
  // Logs recorded while incremental saves existed carry the key. A log that ran them
  // cannot be replayed as full saves: the schedule would exercise a different store.
  if (json.Has("incremental")) {
    UCP_ASSIGN_OR_RETURN(bool incremental, json.GetBool("incremental"));
    if (incremental) {
      return InvalidArgumentError("soak options: incremental saves were removed");
    }
  }
  // Absent in logs recorded before the daemon-chaos events existed; replay direct-FS.
  if (json.Has("through_daemon")) {
    UCP_ASSIGN_OR_RETURN(options.through_daemon, json.GetBool("through_daemon"));
  }
  return options;
}

const char* SoakEventKindName(SoakEventKind kind) {
  switch (kind) {
    case SoakEventKind::kTrain: return "train";
    case SoakEventKind::kRankKill: return "rank_kill";
    case SoakEventKind::kFsFault: return "fs_fault";
    case SoakEventKind::kGc: return "gc";
    case SoakEventKind::kBackpressure: return "backpressure";
    case SoakEventKind::kFsck: return "fsck";
    case SoakEventKind::kConnDrop: return "conn_drop";
    case SoakEventKind::kDaemonRestart: return "daemon_restart";
  }
  return "?";
}

const std::vector<FaultSite>& SoakKillSites() {
  static const std::vector<FaultSite>* sites = new std::vector<FaultSite>{
      FaultSite::kIterationStart, FaultSite::kAllReduce, FaultSite::kBarrier,
      FaultSite::kBeforeSave,     FaultSite::kAsyncFlush,
  };
  return *sites;
}

FaultPlan SoakEvent::ToFaultPlan() const {
  FaultPlan plan;
  plan.kind = static_cast<FaultPlan::Kind>(fs_kind);
  plan.op = static_cast<FsOp>(fs_op);
  plan.nth = fs_nth;
  plan.path_substr = fs_path_substr;
  plan.seed = fs_seed;
  plan.fail_count = fs_fail_count;
  return plan;
}

Json SoakEvent::ToJson() const {
  JsonObject o;
  o["kind"] = SoakEventKindName(kind);
  switch (kind) {
    case SoakEventKind::kTrain:
      o["iterations"] = iterations;
      break;
    case SoakEventKind::kRankKill:
      o["rank_raw"] = kill_rank_raw;
      o["iter_raw"] = kill_iter_raw;
      o["site"] = kill_site;
      break;
    case SoakEventKind::kFsFault:
      o["fault"] = FaultKindName(static_cast<FaultPlan::Kind>(fs_kind));
      o["op"] = FsOpJsonName(static_cast<FsOp>(fs_op));
      o["nth"] = fs_nth;
      o["substr"] = fs_path_substr;
      o["fault_seed"] = fs_seed;
      o["fail_count"] = fs_fail_count;
      break;
    case SoakEventKind::kGc:
      o["keep_last"] = keep_last;
      break;
    case SoakEventKind::kBackpressure:
      o["max_in_flight"] = max_in_flight;
      break;
    case SoakEventKind::kConnDrop:
      o["op_raw"] = conn_op_raw;
      o["kind_raw"] = conn_kind_raw;
      o["nth_raw"] = conn_nth_raw;
      break;
    case SoakEventKind::kDaemonRestart:
    case SoakEventKind::kFsck:
      break;
  }
  return Json(std::move(o));
}

Result<SoakEvent> SoakEvent::FromJson(const Json& json) {
  if (!json.is_object()) return InvalidArgumentError("soak event: not an object");
  UCP_ASSIGN_OR_RETURN(std::string kind, json.GetString("kind"));
  SoakEvent event;
  if (kind == "train") {
    event.kind = SoakEventKind::kTrain;
    UCP_ASSIGN_OR_RETURN(int64_t iters, json.GetInt("iterations"));
    event.iterations = static_cast<int>(iters);
    if (event.iterations < 1) return InvalidArgumentError("train event: iterations < 1");
  } else if (kind == "rank_kill") {
    event.kind = SoakEventKind::kRankKill;
    UCP_ASSIGN_OR_RETURN(int64_t rank_raw, json.GetInt("rank_raw"));
    event.kill_rank_raw = static_cast<uint64_t>(rank_raw);
    UCP_ASSIGN_OR_RETURN(int64_t iter_raw, json.GetInt("iter_raw"));
    event.kill_iter_raw = static_cast<uint64_t>(iter_raw);
    UCP_ASSIGN_OR_RETURN(int64_t site, json.GetInt("site"));
    event.kill_site = static_cast<int>(site);
  } else if (kind == "fs_fault") {
    event.kind = SoakEventKind::kFsFault;
    UCP_ASSIGN_OR_RETURN(std::string fault, json.GetString("fault"));
    UCP_ASSIGN_OR_RETURN(FaultPlan::Kind fault_kind, FaultKindFromName(fault));
    event.fs_kind = static_cast<int>(fault_kind);
    UCP_ASSIGN_OR_RETURN(std::string op, json.GetString("op"));
    UCP_ASSIGN_OR_RETURN(FsOp fs_op, FsOpFromName(op));
    event.fs_op = static_cast<int>(fs_op);
    UCP_ASSIGN_OR_RETURN(int64_t nth, json.GetInt("nth"));
    event.fs_nth = static_cast<int>(nth);
    UCP_ASSIGN_OR_RETURN(event.fs_path_substr, json.GetString("substr"));
    UCP_ASSIGN_OR_RETURN(int64_t fault_seed, json.GetInt("fault_seed"));
    event.fs_seed = static_cast<uint64_t>(fault_seed);
    UCP_ASSIGN_OR_RETURN(int64_t fail_count, json.GetInt("fail_count"));
    event.fs_fail_count = static_cast<int>(fail_count);
  } else if (kind == "gc") {
    event.kind = SoakEventKind::kGc;
    UCP_ASSIGN_OR_RETURN(int64_t keep, json.GetInt("keep_last"));
    event.keep_last = static_cast<int>(keep);
  } else if (kind == "backpressure") {
    event.kind = SoakEventKind::kBackpressure;
    UCP_ASSIGN_OR_RETURN(int64_t in_flight, json.GetInt("max_in_flight"));
    event.max_in_flight = static_cast<int>(in_flight);
  } else if (kind == "fsck") {
    event.kind = SoakEventKind::kFsck;
  } else if (kind == "conn_drop") {
    event.kind = SoakEventKind::kConnDrop;
    UCP_ASSIGN_OR_RETURN(int64_t op_raw, json.GetInt("op_raw"));
    event.conn_op_raw = static_cast<uint64_t>(op_raw);
    UCP_ASSIGN_OR_RETURN(int64_t kind_raw, json.GetInt("kind_raw"));
    event.conn_kind_raw = static_cast<uint64_t>(kind_raw);
    UCP_ASSIGN_OR_RETURN(int64_t nth_raw, json.GetInt("nth_raw"));
    event.conn_nth_raw = static_cast<uint64_t>(nth_raw);
  } else if (kind == "daemon_restart") {
    event.kind = SoakEventKind::kDaemonRestart;
  } else {
    return InvalidArgumentError("unknown soak event kind: " + kind);
  }
  return event;
}

std::vector<SoakEvent> GenerateSoakSchedule(const SoakOptions& options) {
  const CounterRng rng(options.seed, kScheduleStream);
  uint64_t counter = 0;
  auto bounded = [&](uint64_t n) { return rng.BoundedAt(counter++, n); };
  auto draw64 = [&] { return rng.U64At(counter++); };

  const int blocks = std::max(3, options.num_blocks);
  // Unconditional placements guarantee every schedule composes a rank kill, a filesystem
  // fault and a GC (>= 3 distinct injector types) no matter how the coin flips land.
  const int kill_block = static_cast<int>(bounded(static_cast<uint64_t>(blocks)));
  const int fs_block = static_cast<int>(bounded(static_cast<uint64_t>(blocks)));
  const int gc_block = static_cast<int>(bounded(static_cast<uint64_t>(blocks)));
  // Daemon-chaos draws happen only under through_daemon, so direct-FS schedules keep the
  // exact counter layout (and therefore byte-identical logs) they had before these events
  // existed. Both wire injectors get one unconditional placement each, extending the
  // coverage guarantee to >= 5 distinct injector types.
  int conn_block = -1;
  int restart_block = -1;
  if (options.through_daemon) {
    conn_block = static_cast<int>(bounded(static_cast<uint64_t>(blocks)));
    restart_block = static_cast<int>(bounded(static_cast<uint64_t>(blocks)));
  }

  auto make_fs_fault = [&] {
    SoakEvent event;
    event.kind = SoakEventKind::kFsFault;
    static const FaultPlan::Kind kKinds[] = {FaultPlan::Kind::kTornWrite,
                                             FaultPlan::Kind::kBitRot,
                                             FaultPlan::Kind::kFailStop,
                                             FaultPlan::Kind::kTransient};
    const FaultPlan::Kind kind = kKinds[bounded(4)];
    event.fs_kind = static_cast<int>(kind);
    if (kind == FaultPlan::Kind::kTornWrite || kind == FaultPlan::Kind::kBitRot) {
      event.fs_op = static_cast<int>(FsOp::kWrite);  // corruption is a write phenomenon
    } else {
      static const FsOp kOps[] = {FsOp::kWrite, FsOp::kFsync, FsOp::kRename, FsOp::kRead};
      event.fs_op = static_cast<int>(kOps[bounded(4)]);
    }
    event.fs_path_substr = kFaultTargets[bounded(3)];
    event.fs_nth = 1 + static_cast<int>(bounded(4));
    event.fs_seed = draw64();
    event.fs_fail_count = 1 + static_cast<int>(bounded(2));
    return event;
  };

  int kills = 0;
  std::vector<SoakEvent> events;
  for (int b = 0; b < blocks; ++b) {
    if (bounded(100) < 25) {
      SoakEvent event;
      event.kind = SoakEventKind::kBackpressure;
      event.max_in_flight = 1 + static_cast<int>(bounded(2));
      events.push_back(event);
    }
    const bool coin_fs = bounded(100) < 35;  // drawn unconditionally: stable counter layout
    if (b == fs_block || coin_fs) {
      events.push_back(make_fs_fault());
    }
    if (options.through_daemon) {
      const bool coin_conn = bounded(100) < 35;
      if (b == conn_block || coin_conn) {
        SoakEvent event;
        event.kind = SoakEventKind::kConnDrop;
        event.conn_op_raw = draw64();
        event.conn_kind_raw = draw64();
        event.conn_nth_raw = draw64();
        events.push_back(event);
      }
      const bool coin_restart = bounded(100) < 20;
      if (b == restart_block || coin_restart) {
        SoakEvent event;
        event.kind = SoakEventKind::kDaemonRestart;
        events.push_back(event);
      }
    }
    const bool coin_kill = bounded(100) < 20;
    if ((b == kill_block || coin_kill) && kills < options.max_kills) {
      SoakEvent event;
      event.kind = SoakEventKind::kRankKill;
      event.kill_rank_raw = draw64();
      event.kill_iter_raw = draw64();
      event.kill_site = static_cast<int>(bounded(SoakKillSites().size()));
      events.push_back(event);
      ++kills;
    }
    SoakEvent train;
    train.kind = SoakEventKind::kTrain;
    train.iterations =
        2 + static_cast<int>(bounded(static_cast<uint64_t>(std::max(1, options.max_train_iters - 1))));
    events.push_back(train);
    const bool coin_gc = bounded(100) < 30;
    if (b == gc_block || coin_gc) {
      SoakEvent gc;
      gc.kind = SoakEventKind::kGc;
      gc.keep_last = 1 + static_cast<int>(bounded(3));
      events.push_back(gc);
    }
    if (bounded(100) < 20) {
      SoakEvent fsck;
      fsck.kind = SoakEventKind::kFsck;
      events.push_back(fsck);
    }
  }
  return events;
}

std::vector<std::string> ScheduleInjectorKinds(const std::vector<SoakEvent>& events) {
  std::set<std::string> kinds;
  for (const SoakEvent& event : events) {
    switch (event.kind) {
      case SoakEventKind::kRankKill:
        kinds.insert("rank_kill");
        break;
      case SoakEventKind::kFsFault:
        kinds.insert(std::string("fs_fault:") +
                     FaultKindName(static_cast<FaultPlan::Kind>(event.fs_kind)));
        break;
      case SoakEventKind::kGc:
        kinds.insert("gc");
        break;
      case SoakEventKind::kBackpressure:
        kinds.insert("backpressure");
        break;
      case SoakEventKind::kConnDrop:
        kinds.insert("conn_drop");
        break;
      case SoakEventKind::kDaemonRestart:
        kinds.insert("daemon_restart");
        break;
      case SoakEventKind::kTrain:
      case SoakEventKind::kFsck:
        break;
    }
  }
  return std::vector<std::string>(kinds.begin(), kinds.end());
}

}  // namespace ucp
