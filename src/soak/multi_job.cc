#include "src/soak/multi_job.h"

#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "src/ckpt/async/engine.h"
#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/model/config.h"
#include "src/runtime/trainer.h"
#include "src/store/server.h"
#include "src/ucp/elastic.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

// `endpoint` empty = the job writes and reads the directory itself (LocalStore); otherwise
// each phase dials the soak's daemon, modelling a restarted job reconnecting. Either way a
// phase saves and resumes through one store.
MultiJobReport::JobResult RunOneJob(const MultiJobOptions& options, const std::string& job,
                                    const std::string& endpoint) {
  MultiJobReport::JobResult result;
  result.job = job;
  const std::string store_spec = endpoint.empty() ? options.dir : endpoint;

  // This (launcher) thread and every thread it owns declare the job identity for the I/O
  // audit; the engine's flusher threads declare it via pre_flush_hook.
  SetThreadIoAuditContext(job);

  std::mutex mu;
  Status first_error;
  auto note = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_error.ok() && !status.ok()) {
      first_error = status;
    }
  };

  TrainerConfig config;
  config.model = TinyGpt();
  config.strategy = options.strategy;
  config.global_batch = options.global_batch;

  for (int phase = 0; phase < options.phases; ++phase) {
    TrainingRun run(config);
    AsyncCheckpointOptions engine_options;
    engine_options.job = job;
    engine_options.keep_last = options.keep_last;
    engine_options.max_in_flight = 2;
    engine_options.pre_flush_hook = [job](int64_t) { SetThreadIoAuditContext(job); };
    Result<std::shared_ptr<Store>> store = OpenStore(store_spec);
    if (!store.ok()) {
      note(store.status());
      break;
    }
    AsyncCheckpointEngine engine(*store, run.world_size(), engine_options);

    const int64_t first =
        static_cast<int64_t>(phase) * options.iterations_per_phase + 1;
    const int64_t last = static_cast<int64_t>(phase + 1) * options.iterations_per_phase;

    if (phase > 0) {
      // A fresh TrainingRun each phase models a job restart against the shared store; the
      // resume must land exactly on the previous phase's frontier.
      run.Run([&](RankTrainer& trainer) {
        SetThreadIoAuditContext(job);
        Result<ResumeReport> resumed = ResumeElastic(**store, trainer, job);
        if (!resumed.ok()) {
          note(resumed.status());
        } else if (trainer.rank() == 0 && resumed->iteration != first - 1) {
          note(InternalError(job + ": resumed at iteration " +
                             std::to_string(resumed->iteration) + ", expected " +
                             std::to_string(first - 1)));
        }
      });
    }

    run.Train(first, last, [&](RankTrainer& trainer, int64_t iteration) {
      SetThreadIoAuditContext(job);
      if (options.checkpoint_every > 0 && iteration % options.checkpoint_every == 0) {
        note(engine.SaveAsync(trainer, iteration));
      }
    });
    note(engine.WaitAll());
  }

  // Final store state, still under this job's audit identity.
  Result<std::shared_ptr<Store>> opened = OpenStore(store_spec);
  if (!opened.ok()) {
    note(opened.status());
    result.status = first_error;
    return result;
  }
  Store& store = **opened;
  Result<std::string> latest = FindLatestValidTag(store, job);
  if (!latest.ok()) {
    note(latest.status());
  } else {
    result.latest_tag = *latest;
    ParseTagName(*latest, nullptr, &result.latest_iteration);

    ValidateOptions validate_options;
    validate_options.deep = true;
    validate_options.num_threads = 0;
    Result<ValidationReport> validated =
        ValidateNativeCheckpoint(store, *latest, validate_options);
    result.deep_valid = validated.ok() && validated->ok();

    TrainingRun reload(config);
    reload.Run([&](RankTrainer& trainer) {
      SetThreadIoAuditContext(job);
      Result<ResumeReport> resumed = ResumeElastic(store, trainer, job);
      if (!resumed.ok()) {
        note(resumed.status());
      } else if (trainer.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        result.reloaded = resumed->tag == result.latest_tag;
      }
    });
  }

  Result<std::vector<std::string>> tags = store.ListTags(job);
  if (tags.ok()) {
    for (const std::string& tag : *tags) {
      result.committed_tags += IsTagComplete(store, tag) ? 1 : 0;
    }
  }

  result.status = first_error;
  result.ok = first_error.ok();
  return result;
}

}  // namespace

MultiJobReport RunMultiJobSoak(const MultiJobOptions& options) {
  MultiJobReport report;
  Status made = MakeDirs(options.dir);
  if (!made.ok()) {
    report.violations.push_back("store: " + made.ToString());
    return report;
  }

  std::vector<std::string> jobs;
  for (int j = 0; j < options.jobs; ++j) {
    jobs.push_back("job" + std::to_string(j));
  }

  // In daemon mode one in-process StoreServer owns the save path for every job; it starts
  // before the audit/faults arm so only checkpoint traffic (not daemon setup) is measured.
  std::unique_ptr<StoreServer> server;
  std::string endpoint;
  if (options.through_daemon) {
    StoreServerOptions server_options;
    server_options.root = options.dir;
    server_options.listen = "unix:" + options.dir + "/soak_serverd.sock";
    Result<std::unique_ptr<StoreServer>> started =
        StoreServer::Start(std::move(server_options));
    if (!started.ok()) {
      report.violations.push_back("daemon: " + started.status().ToString());
      return report;
    }
    server = std::move(*started);
    endpoint = server->endpoint();
  }

  std::optional<ScopedIoAudit> audit;
  if (options.audit) {
    std::vector<IoAuditBucket> buckets;
    for (const std::string& job : jobs) {
      IoAuditBucket bucket;
      bucket.name = job;
      // Matches the job's tags, their staging/ucp derivatives, and its latest pointer
      // (including the pointer's tmp-write names, which embed the final path).
      bucket.path_substrs = {"/" + job + ".global_step", "latest." + job};
      buckets.push_back(std::move(bucket));
    }
    audit.emplace(std::move(buckets));
  }

  if (options.inject_fault && !jobs.empty()) {
    // One torn write scoped to job 0's namespace: an early save of job 0 commits damaged;
    // its later saves and every sibling job must be untouched. nth=2 lands in the shards of
    // job 0's first flush (the namespace prefix matches every file of the save).
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kTornWrite;
    plan.op = FsOp::kWrite;
    plan.nth = 2;
    plan.path_substr = jobs[0] + ".global_step";
    plan.seed = 0x5eedULL;
    ArmFault(plan);
  }

  report.jobs.resize(jobs.size());
  std::vector<std::thread> threads;
  threads.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    threads.emplace_back([&, j] { report.jobs[j] = RunOneJob(options, jobs[j], endpoint); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (server != nullptr) {
    // Every session closed when its job's engines were destroyed; drain is a formality.
    server->Shutdown();
  }

  if (options.inject_fault && !jobs.empty()) {
    report.fault_fired = FaultFired();
    DisarmFaults();
    if (!report.fault_fired) {
      report.violations.push_back("injected fault never fired (schedule too short?)");
    }
  }

  const int64_t expected_iteration =
      static_cast<int64_t>(options.phases) * options.iterations_per_phase;
  for (const MultiJobReport::JobResult& job : report.jobs) {
    if (!job.ok) {
      report.violations.push_back(job.job + ": " + job.status.ToString());
    }
    if (job.latest_iteration != expected_iteration) {
      report.violations.push_back(job.job + ": latest resumable iteration " +
                                  std::to_string(job.latest_iteration) + ", expected " +
                                  std::to_string(expected_iteration));
    }
    if (!job.deep_valid) {
      report.violations.push_back(job.job + ": newest tag fails deep validation");
    }
    if (!job.reloaded) {
      report.violations.push_back(job.job + ": end-to-end reload failed");
    }
  }

  if (options.audit) {
    report.audit = audit->Report();
    for (const IoAuditViolation& violation : report.audit.violations) {
      report.violations.push_back("audit: " + violation.ToString());
    }
    for (const std::string& job : jobs) {
      auto it = report.audit.ops_per_bucket.find(job);
      if (it == report.audit.ops_per_bucket.end() || it->second == 0) {
        report.violations.push_back("audit: no I/O attributed to " + job);
      }
    }
  }
  return report;
}

}  // namespace ucp
