#include "src/soak/driver.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>

#include "src/ckpt/checkpoint.h"
#include "src/common/fault_fs.h"
#include "src/common/fs.h"
#include "src/model/config.h"
#include "src/runtime/supervisor.h"
#include "src/soak/invariants.h"
#include "src/store/server.h"
#include "src/store/wire.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

// Shortest round-trip-exact double formatting; the loss sum is the log's bit-identity
// witness for the training computation itself.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

bool IsCorruptionKind(FaultPlan::Kind kind) {
  return kind == FaultPlan::Kind::kTornWrite || kind == FaultPlan::Kind::kBitRot;
}

// Resolves a kConnDrop event's raw draws into a concrete socket fault. The three errno
// kinds all drop the connection for real (wire.h), so every draw exercises the client's
// reconnect + WRITE_RESUME path; they differ only in which errno the victim observes.
SocketFault ResolveConnFault(const SoakEvent& event) {
  SocketFault fault;
  fault.op = event.conn_op_raw % 2 == 0 ? SocketFault::Op::kSend : SocketFault::Op::kRecv;
  switch (event.conn_kind_raw % 3) {
    case 0: fault.kind = SocketFault::Kind::kEpipe; break;
    case 1: fault.kind = SocketFault::Kind::kEconnreset; break;
    default: fault.kind = SocketFault::Kind::kEtimedout; break;
  }
  fault.nth = static_cast<int>(event.conn_nth_raw % 64);
  return fault;
}

const char* SocketFaultOpName(SocketFault::Op op) {
  return op == SocketFault::Op::kSend ? "send" : "recv";
}

const char* SocketFaultKindName(SocketFault::Kind kind) {
  switch (kind) {
    case SocketFault::Kind::kEpipe: return "epipe";
    case SocketFault::Kind::kEconnreset: return "econnreset";
    case SocketFault::Kind::kEtimedout: return "etimedout";
    default: return "other";
  }
}

}  // namespace

std::string SoakRunReport::LogText() const {
  std::string text;
  for (const std::string& line : log_lines) {
    text += line;
    text += '\n';
  }
  return text;
}

SoakRunReport RunSoakSchedule(const SoakOptions& options,
                              const std::vector<SoakEvent>& events) {
  SoakRunReport report;
  if (options.dir.empty()) {
    report.status = InvalidArgumentError("soak: options.dir is required");
    return report;
  }
  Status made = MakeDirs(options.dir);
  if (!made.ok()) {
    report.status = made;
    return report;
  }
  LocalStore store(options.dir);

  // through_daemon: every save goes through this in-process ucp_serverd serving the same
  // root over a unix socket. The server object is restartable in place (kDaemonRestart),
  // which is what exercises lease-journal recovery.
  std::unique_ptr<StoreServer> server;
  StoreServerOptions server_options;
  if (options.through_daemon) {
    server_options.root = options.dir;
    server_options.listen = "unix:" + PathJoin(options.dir, ".ucp_soak.sock");
    Result<std::unique_ptr<StoreServer>> started = StoreServer::Start(server_options);
    if (!started.ok()) {
      report.status = started.status();
      return report;
    }
    server = std::move(*started);
  }

  auto emit = [&](const Json& line) { report.log_lines.push_back(line.Dump()); };

  {
    JsonObject header;
    header["type"] = "soak_header";
    header["version"] = 1;
    header["options"] = options.ToJson();
    header["events"] = static_cast<int64_t>(events.size());
    emit(Json(std::move(header)));
  }

  TrainerConfig base_config;
  base_config.model = TinyGpt();
  base_config.strategy = options.strategy;
  base_config.global_batch = options.global_batch;

  ParallelConfig strategy = options.strategy;
  int64_t completed = 0;
  int64_t max_attempted = 0;
  int64_t prev_latest_valid = -1;
  int corruptions_total = 0;
  bool corruption_since_check = false;
  int current_max_in_flight = 1;
  std::optional<SoakEvent> pending_kill;
  std::optional<SoakEvent> pending_fs;
  std::optional<SoakEvent> pending_conn;
  // I8 state: every tag observed committed, minus the ones GC legitimately removed. A tag
  // in this set that later vanishes (or loses its marker) is a lost commit.
  std::set<std::string> must_exist;
  bool any_commit_observed = false;

  for (size_t i = 0; i < events.size(); ++i) {
    const SoakEvent& event = events[i];
    JsonObject line;
    line["type"] = "soak_event";
    line["e"] = static_cast<int64_t>(i);
    line["spec"] = event.ToJson();
    bool expect_no_staging = false;

    switch (event.kind) {
      case SoakEventKind::kRankKill:
        pending_kill = event;
        break;
      case SoakEventKind::kFsFault:
        pending_fs = event;
        break;
      case SoakEventKind::kConnDrop:
        // Armed at the next train segment, like the other injectors. Resolved values are
        // logged here (they are a pure function of the event's raw draws); whether the nth
        // syscall is ever reached is timing-dependent and deliberately *not* logged — the
        // invariants must hold either way, which is the point of the chaos.
        if (server != nullptr) {
          const SocketFault fault = ResolveConnFault(event);
          line["conn_op"] = SocketFaultOpName(fault.op);
          line["conn_kind"] = SocketFaultKindName(fault.kind);
          line["conn_nth"] = fault.nth;
          pending_conn = event;
        }
        break;
      case SoakEventKind::kDaemonRestart:
        // Kill (no drain) and restart the daemon between segments: journal recovery must
        // re-adopt whatever live-leased state the previous incarnation held, and the next
        // segment's engine must dial the fresh incarnation without ceremony.
        if (server != nullptr) {
          server->Shutdown(/*drain=*/false);
          server.reset();
          Result<std::unique_ptr<StoreServer>> restarted = StoreServer::Start(server_options);
          if (!restarted.ok()) {
            report.status = restarted.status();
            return report;
          }
          server = std::move(*restarted);
          ++report.daemon_restarts;
        }
        break;
      case SoakEventKind::kBackpressure:
        current_max_in_flight = std::max(1, event.max_in_flight);
        break;
      case SoakEventKind::kGc: {
        Result<GcReport> gc = store.Gc(options.job, event.keep_last, /*dry_run=*/false);
        if (gc.ok()) {
          line["gc_removed"] = static_cast<int64_t>(gc->removed.size());
          line["gc_kept"] = static_cast<int64_t>(gc->kept.size());
          for (const std::string& removed : gc->removed) {
            must_exist.erase(removed);  // a GC removal is not a lost commit (I8)
          }
        } else {
          line["gc_error"] = StatusCodeName(gc.status().code());
        }
        break;
      }
      case SoakEventKind::kFsck: {
        FsckOptions fsck_options;
        fsck_options.quarantine = false;
        fsck_options.fast = false;
        fsck_options.num_threads = 0;
        Result<FsckReport> fsck = Fsck(options.dir, fsck_options);
        if (fsck.ok()) {
          int damaged = 0;
          for (const FsckReport::Entry& entry : fsck->entries) {
            damaged += entry.report.ok() ? 0 : 1;
          }
          line["fsck_entries"] = static_cast<int64_t>(fsck->entries.size());
          line["fsck_damaged"] = damaged;
          line["fsck_notes"] = static_cast<int64_t>(fsck->notes.size());
        } else {
          line["fsck_error"] = StatusCodeName(fsck.status().code());
        }
        break;
      }
      case SoakEventKind::kTrain: {
        const int64_t first = completed + 1;
        const int64_t last = completed + event.iterations;
        const bool had_resume_tag = FindLatestValidTag(store, options.job).ok();
        const bool clean_segment = !pending_kill.has_value() && !pending_fs.has_value() &&
                                   !pending_conn.has_value();

        if (pending_kill.has_value()) {
          RankFaultPlan plan;
          plan.rank = static_cast<int>(pending_kill->kill_rank_raw %
                                       static_cast<uint64_t>(strategy.world_size()));
          plan.iteration = first + static_cast<int64_t>(
                                       pending_kill->kill_iter_raw %
                                       static_cast<uint64_t>(event.iterations));
          plan.site = SoakKillSites()[static_cast<size_t>(pending_kill->kill_site) %
                                      SoakKillSites().size()];
          ArmRankFault(plan);
          line["kill_rank"] = plan.rank;
          line["kill_iteration"] = plan.iteration;
          line["kill_site"] = FaultSiteName(plan.site);
        }
        if (pending_fs.has_value()) {
          ArmFault(pending_fs->ToFaultPlan());
        }
        if (pending_conn.has_value() && server != nullptr) {
          ArmSocketFault(ResolveConnFault(*pending_conn));
        }

        TrainerConfig config = base_config;
        config.strategy = strategy;
        SupervisorOptions supervisor_options;
        supervisor_options.ckpt_dir = options.dir;
        supervisor_options.checkpoint_every = options.checkpoint_every;
        supervisor_options.async.job = options.job;
        supervisor_options.async.keep_last = 0;  // retention is a schedule event, not ambient
        supervisor_options.async.max_in_flight = current_max_in_flight;
        supervisor_options.watchdog_timeout = std::chrono::milliseconds(options.watchdog_ms);
        if (server != nullptr) {
          supervisor_options.store_endpoint = server->endpoint();
          // The daemon is in-process and restarts are synchronous schedule events, so a
          // drop only ever needs a quick redial; a short deadline keeps a real wedge from
          // stalling the flusher behind the 2s watchdog for long.
          supervisor_options.store_options.reconnect_deadline = std::chrono::milliseconds(2000);
        }
        Supervisor supervisor(config, supervisor_options);
        SupervisorReport trained = supervisor.Train(first, last);
        strategy = supervisor.current_strategy();

        const bool kill_fired = RankFaultFired();
        const bool fs_fired = FaultFired();
        DisarmRankFaults();
        DisarmFaults();
        if (pending_conn.has_value()) {
          ClearSocketFaults();
          ++report.conn_drops_armed;
          pending_conn.reset();
        }

        if (pending_kill.has_value()) {
          report.kills_fired += kill_fired ? 1 : 0;
          line["kill_fired"] = kill_fired;
          pending_kill.reset();
        }
        if (pending_fs.has_value()) {
          report.fs_faults_fired += fs_fired ? 1 : 0;
          line["fs_fired"] = fs_fired;
          if (fs_fired &&
              IsCorruptionKind(static_cast<FaultPlan::Kind>(pending_fs->fs_kind))) {
            ++corruptions_total;
            corruption_since_check = true;
          }
          pending_fs.reset();
        }

        line["first"] = first;
        line["last"] = last;
        line["ok"] = trained.ok;
        line["recoveries"] = trained.recoveries;
        line["strategy"] = strategy.ToString();
        if (!trained.ok) {
          // Which rank's error surfaces for a failed segment is a thread race once the
          // daemon is in play (the injected fault can land on a rank thread, the flusher,
          // or a server thread, and the peers abort with a different code), so
          // through_daemon logs record only the deterministic fact of the failure.
          line["status"] =
              server != nullptr ? "failed" : StatusCodeName(trained.status.code());
        }
        double loss_sum = 0.0;
        for (double loss : trained.losses) {
          loss_sum += loss;
        }
        line["loss_sum"] = FormatDouble(loss_sum);

        report.recoveries += trained.recoveries;
        max_attempted = std::max(max_attempted, last);
        if (trained.ok) {
          report.iterations_trained += last - completed;
          completed = last;
        }
        expect_no_staging =
            clean_segment && had_resume_tag && trained.ok && trained.recoveries == 0;
        break;
      }
    }

    // Invariants run after every event, always with the injectors disarmed (arm-type events
    // only stage a pending plan; nothing is armed outside the Train call above).
    SoakInvariantContext context;
    context.dir = options.dir;
    context.job = options.job;
    context.max_trained_iteration = max_attempted;
    context.prev_latest_valid = prev_latest_valid;
    context.corruptions_fired_total = corruptions_total;
    context.corruption_since_last_check = corruption_since_check;
    context.expect_no_staging = expect_no_staging;
    context.must_exist_tags.assign(must_exist.begin(), must_exist.end());
    SoakInvariantResult checked = CheckSoakInvariants(context);
    report.invariant_checks += checked.checks_run;
    for (const std::string& tag : checked.committed_tag_names) {
      must_exist.insert(tag);
      any_commit_observed = true;
    }
    if (checked.latest_valid_iteration >= 0 || prev_latest_valid >= 0) {
      prev_latest_valid = checked.latest_valid_iteration;
    }
    corruption_since_check = false;

    line["latest_valid"] = checked.latest_valid_tag;
    line["latest_iter"] = checked.latest_valid_iteration;
    line["committed"] = checked.committed_tags;
    line["damaged"] = checked.damaged_tags;
    line["staging"] = checked.staging_dirs;
    if (!checked.violations.empty()) {
      JsonArray violations;
      for (const std::string& v : checked.violations) {
        violations.emplace_back(v);
        report.violations.push_back(v);
      }
      line["violations"] = Json(std::move(violations));
    }
    emit(Json(std::move(line)));
    ++report.events_run;
  }

  if (server != nullptr) {
    // Liveness half of I8: chaos may delay commits, but a whole schedule that never lands
    // one means the survivability machinery is stalling saves rather than riding them out.
    if (!any_commit_observed) {
      report.violations.push_back("I8: schedule completed without ever committing a tag");
    }
    server->Shutdown(/*drain=*/true);
    server.reset();
  }

  {
    JsonObject summary;
    summary["type"] = "soak_summary";
    summary["events"] = report.events_run;
    summary["iterations"] = report.iterations_trained;
    summary["checks"] = report.invariant_checks;
    summary["kills_fired"] = report.kills_fired;
    summary["fs_faults_fired"] = report.fs_faults_fired;
    summary["recoveries"] = report.recoveries;
    if (options.through_daemon) {
      summary["conn_drops_armed"] = report.conn_drops_armed;
      summary["daemon_restarts"] = report.daemon_restarts;
    }
    summary["violations"] = static_cast<int64_t>(report.violations.size());
    emit(Json(std::move(summary)));
  }

  if (!options.log_path.empty()) {
    Status wrote = WriteFileAtomic(options.log_path, report.LogText());
    if (!wrote.ok()) {
      report.status = wrote;
      return report;
    }
  }
  report.ok = true;
  return report;
}

SoakRunReport RunSoak(const SoakOptions& options) {
  return RunSoakSchedule(options, GenerateSoakSchedule(options));
}

Result<SoakLog> ParseSoakLog(const std::string& text) {
  SoakLog log;
  bool saw_header = false;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) {
      continue;
    }
    UCP_ASSIGN_OR_RETURN(Json parsed, Json::Parse(line));
    UCP_ASSIGN_OR_RETURN(std::string type, parsed.GetString("type"));
    if (type == "soak_header") {
      if (!parsed.Has("options")) {
        return InvalidArgumentError("soak log header: missing options");
      }
      UCP_ASSIGN_OR_RETURN(log.options, SoakOptions::FromJson(parsed.AsObject().at("options")));
      saw_header = true;
    } else if (type == "soak_event") {
      if (!parsed.Has("spec")) {
        return InvalidArgumentError("soak log event: missing spec");
      }
      UCP_ASSIGN_OR_RETURN(SoakEvent event, SoakEvent::FromJson(parsed.AsObject().at("spec")));
      log.events.push_back(std::move(event));
    }
    // soak_summary lines carry no replay state.
  }
  if (!saw_header) {
    return InvalidArgumentError("soak log: no soak_header line");
  }
  return log;
}

Result<SoakRunReport> ReplaySoakLog(const std::string& log_text, const std::string& dir) {
  UCP_ASSIGN_OR_RETURN(SoakLog log, ParseSoakLog(log_text));
  log.options.dir = dir;
  log.options.log_path.clear();
  SoakRunReport report = RunSoakSchedule(log.options, log.events);
  if (!report.ok) {
    return report.status;
  }
  return report;
}

}  // namespace ucp
