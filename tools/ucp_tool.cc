// ucp_tool — command-line front end for the UCP library (the analogue of DeepSpeed's
// ds_to_universal.py plus inspection helpers).
//
//   ucp_tool convert  <ckpt_dir> <tag> <ucp_dir> [--threads N] [--spec FILE]
//       Convert a native distributed checkpoint to UCP atom checkpoints. With --spec, the
//       pattern library is parsed from a UCP-language text file instead of being generated.
//
//   ucp_tool convert-foreign <foreign_dir> <tag> <ucp_dir> [--threads N]
//       Ingest a foreign (DDP-style consolidated) checkpoint.
//
//   ucp_tool inspect  <ucp_dir>
//       Print the UCP manifest (model config, source strategy, iteration) and, per atom,
//       its shape, payload bytes per state and CRC chunk count across its three states.
//       Reads atom headers only, no payload.
//
//   ucp_tool inspect-ckpt <ckpt_dir> <tag>
//       Print a native checkpoint's metadata and shard files.
//
//   ucp_tool spec     [--store ENDPOINT | <ckpt_dir>] <tag>
//       Print the generated UCP pattern spec for a checkpoint's source strategy (a starting
//       point for hand-edited specs).
//
//   ucp_tool plan     <ucp_dir> <tp> <pp> <dp> <sp> <zero_stage> [rank]
//       Print the GenUcpMetadata load plan (JSON) for one target rank.
//
//   ucp_tool fsck     <path> [--quarantine] [--fast] [--threads N]
//       Walk a checkpoint root (every tag, cached .ucp dirs, the latest pointer, staging
//       debris) or a single UCP atom directory, verifying CRCs and manifest agreement.
//       Exits 0 when clean, 1 when damage was found. With --quarantine, damaged
//       tags/UCP dirs are renamed to <name>.quarantined so resumes skip them, a one-line
//       summary of what was renamed is printed, and the exit code distinguishes 0 clean /
//       1 repaired (intact checkpoints remain) / 2 unrecoverable (a rename failed or no
//       usable checkpoint is left). --fast
//       checks headers and metadata only (no payload CRC verification); file checks fan
//       out over --threads workers.
//
//   ucp_tool metrics  [--store ENDPOINT | <subcommand> <args...>]
//       With --store, fetch a live daemon's metrics page over the wire (METRICS_DUMP)
//       and print both the text table and the Prometheus exposition.
//       Otherwise run the nested subcommand, then print the process metrics registry
//       (src/obs/metrics.h) as text. Metrics are process-local, so wrapping the command
//       is how a CLI run gets a non-empty snapshot; with no nested command it prints
//       whatever the (fresh) process has — useful to list registered metric names.
//
//   ucp_tool trace-merge <client.json> <server.json> [<out.json>]
//       Stitch a client-side trace export and a daemon-side export (flight record or
//       --trace=FILE) into one Chrome/Perfetto trace: distinct process tracks, server
//       clocks aligned to the client's, and flow arrows linking each client RPC span to
//       its server handling span. Writes to <out.json> or stdout.
//
//   ucp_tool trace-cat <file>
//       Summarize a Chrome trace JSON (as written by --trace=FILE or the flight
//       recorder): per-process event counts and a per-span-name table of count/total/mean
//       wall time, sorted by total.
//
//   ucp_tool soak-replay <failure.jsonl> [<replay_dir>]
//       Deterministically re-execute a soak failure log (tests/soak_test.cc, docs/soak.md)
//       against a fresh directory (or <replay_dir>) and diff the regenerated log against
//       the input. Exits 0 when the replay is byte-identical, 1 on divergence or replayed
//       invariant violations.
//
//   ucp_tool tags [--store ENDPOINT | <ckpt_dir>]
//       List every checkpoint tag in the store with its commit status and the `latest`
//       pointer(s).
//
//   ucp_tool help
//       Print this usage text to stdout and exit 0.
//
// Store-aware subcommands (tags, gc, inspect-ckpt, spec, validate-ckpt) accept
// `--store unix:/path` or `--store tcp:host:port` in place of <ckpt_dir> to run against a
// live ucp_serverd (docs/store.md). Every subcommand prints usage to stderr and exits 2 on
// bad arguments; operational failures exit 1.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/common/json.h"
#include "src/store/remote_store.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_merge.h"
#include "src/soak/driver.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  ucp_tool convert <ckpt_dir> <tag> <ucp_dir> [--threads N] [--spec FILE]\n"
               "  ucp_tool convert-foreign <foreign_dir> <tag> <ucp_dir> [--threads N]\n"
               "  ucp_tool inspect <ucp_dir>\n"
               "  ucp_tool inspect-ckpt [--store ENDPOINT | <ckpt_dir>] <tag>\n"
               "  ucp_tool spec [--store ENDPOINT | <ckpt_dir>] <tag>\n"
               "  ucp_tool plan <ucp_dir> <tp> <pp> <dp> <sp> <zero_stage> [rank]\n"
               "  ucp_tool validate <ucp_dir>\n"
               "  ucp_tool validate-ckpt [--store ENDPOINT | <ckpt_dir>] <tag>\n"
               "  ucp_tool fsck <path> [--quarantine] [--fast] [--threads N]\n"
               "  ucp_tool tags [--store ENDPOINT | <ckpt_dir>]\n"
               "  ucp_tool gc [--store ENDPOINT | <ckpt_dir>] <keep_last> [--dry-run]\n"
               "  ucp_tool ping --store ENDPOINT\n"
               "  ucp_tool metrics [--store ENDPOINT | <subcommand> <args...>]\n"
               "  ucp_tool trace-merge <client.json> <server.json> [<out.json>]\n"
               "  ucp_tool trace-cat <file>\n"
               "  ucp_tool soak-replay <failure.jsonl> [<replay_dir>]\n"
               "  ucp_tool help\n"
               "\n"
               "ENDPOINT is unix:/path or tcp:host:port, naming a running ucp_serverd.\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

struct Flags {
  int threads = 4;
  std::string spec_file;
  std::string store;  // remote endpoint for store-aware subcommands
  bool quarantine = false;
  bool fast = false;
  bool dry_run = false;
  std::string bad_flag;  // first unknown/malformed --flag, "" when parsing was clean
  std::vector<std::string> positional;
};

// Strict integer parse for positional numeric arguments — `ucp_tool gc dir x` must be a
// usage error, not atoi's silent 0.
bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || parsed < INT_MIN || parsed > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!ParseInt(argv[++i], &flags.threads)) {
        flags.bad_flag = "--threads";
      }
    } else if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) {
      flags.spec_file = argv[++i];
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      flags.store = argv[++i];
    } else if (std::strncmp(argv[i], "--store=", 8) == 0) {
      flags.store = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--quarantine") == 0) {
      flags.quarantine = true;
    } else if (std::strcmp(argv[i], "--fast") == 0) {
      flags.fast = true;
    } else if (std::strcmp(argv[i], "--dry-run") == 0) {
      flags.dry_run = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // A flag no subcommand knows (or one missing its value). Treating it as a positional
      // used to surface as a confusing downstream error; it is a usage error.
      if (flags.bad_flag.empty()) {
        flags.bad_flag = argv[i];
      }
    } else {
      flags.positional.push_back(argv[i]);
    }
  }
  return flags;
}

// Opens the store a subcommand addresses: --store dials a daemon, otherwise the first
// positional is a local directory (consumed from `positional`). nullptr = usage error.
std::shared_ptr<Store> OpenToolStore(Flags& flags, Status* error) {
  if (!flags.store.empty()) {
    Result<std::shared_ptr<Store>> opened = OpenStore(flags.store);
    if (!opened.ok()) {
      *error = opened.status();
      return nullptr;
    }
    return *opened;
  }
  if (flags.positional.empty()) {
    return nullptr;  // neither --store nor a directory: usage error
  }
  std::shared_ptr<Store> store = std::make_shared<LocalStore>(flags.positional.front());
  flags.positional.erase(flags.positional.begin());
  return store;
}

int CmdConvert(const Flags& flags, bool foreign) {
  if (flags.positional.size() != 3) {
    return Usage();
  }
  ConvertOptions options;
  options.num_threads = flags.threads;
  PatternLibrary library;
  if (!flags.spec_file.empty()) {
    Result<std::string> text = ReadFileToString(flags.spec_file);
    if (!text.ok()) {
      return Fail(text.status());
    }
    Result<PatternLibrary> parsed = PatternLibrary::FromSpec(*text);
    if (!parsed.ok()) {
      return Fail(parsed.status());
    }
    library = *parsed;
    options.library = &library;
  }
  const std::string& ucp_dir = flags.positional[2];
  LocalStore dest(ParentDir(ucp_dir));
  Result<ConvertStats> stats =
      foreign ? ConvertForeignToUcp(flags.positional[0], flags.positional[1], dest,
                                    BaseName(ucp_dir), options)
              : ConvertToUcp(flags.positional[0], flags.positional[1], ucp_dir, options);
  if (!stats.ok()) {
    return Fail(stats.status());
  }
  std::printf("converted %s/%s -> %s\n", flags.positional[0].c_str(),
              flags.positional[1].c_str(), flags.positional[2].c_str());
  std::printf("  atoms: %d  extract: %.3fs  union: %.3fs  (threads=%d)\n",
              stats->atoms_written, stats->extract_seconds, stats->union_seconds,
              flags.threads);
  return 0;
}

// Header-only: each atom's header prefix is parsed without touching payload bytes, so this
// stays fast even on checkpoints too large to re-read.
int CmdInspect(const Flags& flags) {
  if (flags.positional.size() != 1) {
    return Usage();
  }
  LocalStore ucp(flags.positional[0]);
  Result<UcpMeta> meta = ReadUcpMeta(ucp, "");
  if (!meta.ok()) {
    return Fail(meta.status());
  }
  std::printf("UCP checkpoint: %s\n", flags.positional[0].c_str());
  std::printf("  arch: %s  layers: %d  hidden: %d  heads: %d/%d  experts: %d\n",
              ArchKindName(meta->model.arch), meta->model.num_layers, meta->model.hidden,
              meta->model.num_heads, meta->model.num_kv_heads, meta->model.num_experts);
  std::printf("  source strategy: %s  iteration: %lld  global batch: %d\n",
              meta->source_strategy.ToString().c_str(),
              static_cast<long long>(meta->iteration), meta->global_batch);
  std::printf("  atoms (%zu):\n", meta->atom_names.size());
  std::printf("    %-70s %-16s %12s %7s\n", "atom", "shape", "bytes/state", "chunks");
  int64_t total_numel = 0;
  uint64_t total_bytes = 0;
  uint64_t total_chunks = 0;
  for (const std::string& name : meta->atom_names) {
    Result<std::unique_ptr<ByteSource>> source = ucp.OpenRead(AtomRel("", name));
    if (!source.ok()) {
      return Fail(source.status());
    }
    Result<BundleFileView> atom = OpenAtomView(std::move(source).value());
    if (!atom.ok()) {
      return Fail(atom.status());
    }
    uint64_t atom_chunks = 0;
    for (const auto& [member, info] : atom->entries()) {
      total_bytes += info.payload_bytes;
      atom_chunks += info.num_chunks;
    }
    total_chunks += atom_chunks;
    const TensorFileInfo& fp32 = atom->entries().front().second;
    total_numel += ShapeNumel(fp32.shape);
    std::printf("    %-70s %-16s %12llu %7llu\n", name.c_str(),
                ShapeToString(fp32.shape).c_str(),
                static_cast<unsigned long long>(fp32.payload_bytes),
                static_cast<unsigned long long>(atom_chunks));
  }
  std::printf("  total: %lld parameters; %llu payload bytes across %llu CRC chunks "
              "(3 states per atom)\n",
              static_cast<long long>(total_numel), static_cast<unsigned long long>(total_bytes),
              static_cast<unsigned long long>(total_chunks));
  return 0;
}

int CmdInspectCkpt(Flags flags) {
  Status open_error = OkStatus();
  std::shared_ptr<Store> store = OpenToolStore(flags, &open_error);
  if (store == nullptr) {
    return open_error.ok() ? Usage() : Fail(open_error);
  }
  if (flags.positional.size() != 1) {
    return Usage();
  }
  const std::string& tag = flags.positional[0];
  Result<CheckpointMeta> meta = ReadCheckpointMeta(*store, tag);
  if (!meta.ok()) {
    return Fail(meta.status());
  }
  std::printf("native checkpoint: %s/%s\n", store->Describe().c_str(), tag.c_str());
  std::printf("  arch: %s  strategy: %s  iteration: %lld  world size: %d\n",
              ArchKindName(meta->model.arch), meta->strategy.ToString().c_str(),
              static_cast<long long>(meta->iteration), meta->strategy.world_size());
  Result<std::vector<std::string>> files = store->List(tag);
  if (!files.ok()) {
    return Fail(files.status());
  }
  std::printf("  shard files (%zu):\n", files->size());
  for (const std::string& file : *files) {
    std::printf("    %s\n", file.c_str());
  }
  return 0;
}

// Every tag in the store (all job namespaces), its commit status, and the latest pointers.
int CmdTags(Flags flags) {
  Status open_error = OkStatus();
  std::shared_ptr<Store> store = OpenToolStore(flags, &open_error);
  if (store == nullptr) {
    return open_error.ok() ? Usage() : Fail(open_error);
  }
  if (!flags.positional.empty()) {
    return Usage();
  }
  Result<std::vector<std::string>> entries = store->List("");
  if (!entries.ok()) {
    return Fail(entries.status());
  }
  struct TagRow {
    std::string job;
    int64_t iteration = 0;
    std::string name;
  };
  std::vector<TagRow> rows;
  for (const std::string& name : *entries) {
    TagRow row;
    if (ParseTagName(name, &row.job, &row.iteration)) {
      row.name = name;
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const TagRow& a, const TagRow& b) {
    return std::tie(a.job, a.iteration) < std::tie(b.job, b.iteration);
  });
  std::printf("store: %s  (%zu tags)\n", store->Describe().c_str(), rows.size());
  for (const TagRow& row : rows) {
    std::printf("  %-40s %s\n", row.name.c_str(),
                IsTagComplete(*store, row.name) ? "committed" : "UNCOMMITTED");
  }
  for (const std::string& name : *entries) {
    if (name == "latest" || name.rfind("latest.", 0) == 0) {
      Result<std::string> target = store->ReadSmallFile(name);
      std::printf("  %-40s -> %s\n", name.c_str(),
                  target.ok() ? target->c_str() : "(unreadable)");
    }
  }
  return 0;
}

int CmdSpec(Flags flags) {
  Status open_error = OkStatus();
  std::shared_ptr<Store> store = OpenToolStore(flags, &open_error);
  if (store == nullptr) {
    return open_error.ok() ? Usage() : Fail(open_error);
  }
  if (flags.positional.size() != 1) {
    return Usage();
  }
  Result<CheckpointMeta> meta = ReadCheckpointMeta(*store, flags.positional[0]);
  if (!meta.ok()) {
    return Fail(meta.status());
  }
  PatternLibrary library = PatternLibrary::ForStrategy(meta->model, meta->strategy);
  std::printf("%s", library.ToSpec().c_str());
  return 0;
}

int CmdPlan(const Flags& flags) {
  if (flags.positional.size() < 6 || flags.positional.size() > 7) {
    return Usage();
  }
  LocalStore ucp(flags.positional[0]);
  Result<UcpMeta> meta = ReadUcpMeta(ucp, "");
  if (!meta.ok()) {
    return Fail(meta.status());
  }
  ParallelConfig target;
  int rank = 0;
  if (!ParseInt(flags.positional[1], &target.tp) ||
      !ParseInt(flags.positional[2], &target.pp) ||
      !ParseInt(flags.positional[3], &target.dp) ||
      !ParseInt(flags.positional[4], &target.sp) ||
      !ParseInt(flags.positional[5], &target.zero_stage) ||
      (flags.positional.size() == 7 && !ParseInt(flags.positional[6], &rank))) {
    std::fprintf(stderr, "plan arguments after <ucp_dir> must be integers\n");
    return Usage();
  }
  if (rank < 0 || rank >= target.world_size()) {
    return Fail(InvalidArgumentError("rank out of range for target grid"));
  }
  World world(target.world_size());
  Topology topo(&world, target);
  RankLoadPlan plan = GenUcpMetadata(meta->model, target, topo.CoordOf(rank));
  std::printf("%s\n", plan.ToJson().Dump(2).c_str());
  return 0;
}

int CmdValidate(Flags flags, bool native) {
  std::shared_ptr<Store> store;  // the native checkpoint's; a UCP dir is validated by path
  if (native) {
    Status open_error = OkStatus();
    store = OpenToolStore(flags, &open_error);
    if (store == nullptr) {
      return open_error.ok() ? Usage() : Fail(open_error);
    }
  }
  if (flags.positional.size() != 1) {
    return Usage();
  }
  Result<ValidationReport> report = native
                                        ? ValidateNativeCheckpoint(*store, flags.positional[0])
                                        : ValidateUcpCheckpoint(flags.positional[0]);
  if (!report.ok()) {
    return Fail(report.status());
  }
  std::printf("%s\n", report->ToString().c_str());
  return report->ok() ? 0 : 1;
}

int CmdFsck(const Flags& flags) {
  if (flags.positional.size() != 1) {
    return Usage();
  }
  FsckOptions options;
  options.quarantine = flags.quarantine;
  options.fast = flags.fast;
  options.num_threads = flags.threads;
  Result<FsckReport> report = Fsck(flags.positional[0], options);
  if (!report.ok()) {
    return Fail(report.status());
  }
  std::printf("%s", report->ToString().c_str());
  if (flags.quarantine) {
    std::printf("%s\n", report->QuarantineSummary().c_str());
  }
  const int code = report->ExitCode(flags.quarantine);
  if (code == 2) {
    // Unrecoverable damage: leave a flight-recorder dossier beside the wreckage so the
    // operator sees what this process observed (per-file verdicts live in the report; the
    // dossier adds trace spans and io/retry counters). A damaged UCP directory has just
    // been renamed aside, so its dossier goes under the new name.
    std::string dossier_dir = flags.positional[0];
    if (!DirExists(dossier_dir) && report->quarantined.size() == 1) {
      dossier_dir = report->quarantined[0];
    }
    std::string trace_path;
    std::string dump_err;
    if (obs::DumpFlightRecord(dossier_dir, "fsck", &trace_path, &dump_err)) {
      std::fprintf(stderr, "flight record dumped to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "flight record dump failed: %s\n", dump_err.c_str());
    }
  }
  return code;
}

// Retention for steady-state training: keep the newest `keep_last` *committed* tags (plus
// whatever `latest` names), leave uncommitted tags and `.staging` debris to fsck / the
// next save.
int CmdGc(Flags flags) {
  Status open_error = OkStatus();
  std::shared_ptr<Store> store = OpenToolStore(flags, &open_error);
  if (store == nullptr) {
    return open_error.ok() ? Usage() : Fail(open_error);
  }
  if (flags.positional.size() != 1) {
    return Usage();
  }
  int keep = 0;
  if (!ParseInt(flags.positional[0], &keep)) {
    std::fprintf(stderr, "bad keep_last: %s\n", flags.positional[0].c_str());
    return Usage();
  }
  Result<GcReport> report = store->Gc(/*job=*/"", keep, flags.dry_run);
  if (!report.ok()) {
    return Fail(report.status());
  }
  if (flags.dry_run) {
    std::printf("(dry run — nothing deleted)\n");
  }
  std::printf("%s", report->ToString().c_str());
  return 0;
}

int Main(int argc, char** argv);

// Wraps another subcommand and prints the metrics registry once it returns, so a CLI run
// (convert, fsck, ...) ends with the counters/histograms it produced. Metrics are
// process-local; `ucp_tool metrics` alone prints a fresh process's (near-empty) registry.
int CmdMetrics(int argc, char** argv) {
  int code = 0;
  if (argc >= 3) {
    code = Main(argc - 1, argv + 1);
  }
  std::printf("%s", obs::DumpMetricsText().c_str());
  return code;
}

// `ucp_tool metrics --store ENDPOINT` — a live daemon's registry instead of this
// process's, fetched over the wire (METRICS_DUMP; the same payload /metrics serves).
// Connects lease-less so the probe leaves no state behind on the server.
int CmdMetricsRemote(const Flags& flags) {
  if (!flags.positional.empty()) {
    return Usage();
  }
  RemoteStoreOptions options;
  options.lease_ttl_ms = 0;
  Result<std::shared_ptr<RemoteStore>> store = RemoteStore::Connect(flags.store, options);
  if (!store.ok()) {
    return Fail(store.status());
  }
  Result<std::string> text = (*store)->MetricsDump(/*prometheus=*/false);
  if (!text.ok()) {
    return Fail(text.status());
  }
  Result<std::string> prom = (*store)->MetricsDump(/*prometheus=*/true);
  if (!prom.ok()) {
    return Fail(prom.status());
  }
  std::printf("# metrics from %s (text)\n%s", flags.store.c_str(), text->c_str());
  std::printf("\n# metrics from %s (prometheus)\n%s", flags.store.c_str(), prom->c_str());
  return 0;
}

// Stitches a client trace export and a server trace export into one Chrome trace with
// cross-process flow arrows (src/obs/trace_merge.h has the merge semantics).
int CmdTraceMerge(const Flags& flags) {
  if (flags.positional.size() < 2 || flags.positional.size() > 3) {
    return Usage();
  }
  Result<std::string> client_text = ReadFileToString(flags.positional[0]);
  if (!client_text.ok()) {
    return Fail(client_text.status());
  }
  Result<std::string> server_text = ReadFileToString(flags.positional[1]);
  if (!server_text.ok()) {
    return Fail(server_text.status());
  }
  obs::TraceMergeStats stats;
  Result<std::string> merged = obs::MergeChromeTraces(*client_text, *server_text, &stats);
  if (!merged.ok()) {
    return Fail(merged.status());
  }
  if (flags.positional.size() == 3) {
    Status written = WriteFileAtomic(flags.positional[2], *merged);
    if (!written.ok()) {
      return Fail(written);
    }
    std::printf("merged %zu client + %zu server events (%zu flow links) -> %s\n",
                stats.client_events, stats.server_events, stats.flow_links,
                flags.positional[2].c_str());
  } else {
    std::printf("%s\n", merged->c_str());
    std::fprintf(stderr, "merged %zu client + %zu server events (%zu flow links)\n",
                 stats.client_events, stats.server_events, stats.flow_links);
  }
  return 0;
}

// Summarizes a Chrome trace JSON written by ExportChromeTraceJson (via --trace=FILE or the
// flight recorder): per-process event counts, then a per-span-name table sorted by total
// wall time. Parsing uses src/common/json — the same schema the obs tests validate.
int CmdTraceCat(const Flags& flags) {
  if (flags.positional.size() != 1) {
    return Usage();
  }
  Result<std::string> text = ReadFileToString(flags.positional[0]);
  if (!text.ok()) {
    return Fail(text.status());
  }
  Result<Json> parsed = Json::Parse(*text);
  if (!parsed.ok()) {
    return Fail(parsed.status());
  }
  Result<const JsonArray*> events = parsed->GetArray("traceEvents");
  if (!events.ok()) {
    return Fail(events.status());
  }

  struct SpanAgg {
    uint64_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, SpanAgg> spans;
  std::map<int64_t, uint64_t> events_by_pid;   // spans + instants per process
  std::map<int64_t, std::string> pid_names;    // from "process_name" metadata
  uint64_t instants = 0;
  for (const Json& e : **events) {
    Result<std::string> ph = e.GetString("ph");
    Result<std::string> name = e.GetString("name");
    Result<int64_t> pid = e.GetInt("pid");
    if (!ph.ok() || !name.ok() || !pid.ok()) {
      return Fail(DataLossError("malformed trace event: " + e.Dump()));
    }
    if (*ph == "M") {
      if (*name == "process_name" && e.Has("args")) {
        Result<std::string> pname = e.AsObject().at("args").GetString("name");
        if (pname.ok()) {
          pid_names[*pid] = *pname;
        }
      }
      continue;
    }
    ++events_by_pid[*pid];
    if (*ph == "i") {
      ++instants;
      continue;
    }
    if (*ph != "X") {
      continue;  // forward-compatible: ignore phases we did not emit
    }
    Result<double> dur = e.GetDouble("dur");
    if (!dur.ok()) {
      return Fail(DataLossError("complete event without dur: " + e.Dump()));
    }
    SpanAgg& agg = spans[*name];
    agg.count += 1;
    agg.total_us += *dur;
    agg.max_us = std::max(agg.max_us, *dur);
  }

  std::printf("trace: %s\n", flags.positional[0].c_str());
  std::printf("  processes (%zu):\n", events_by_pid.size());
  for (const auto& [pid, count] : events_by_pid) {
    auto named = pid_names.find(pid);
    std::printf("    %-12s %8llu events\n",
                named != pid_names.end() ? named->second.c_str()
                                         : std::to_string(pid).c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("  instants: %llu\n", static_cast<unsigned long long>(instants));
  std::vector<std::pair<std::string, SpanAgg>> rows(spans.begin(), spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  std::printf("  spans by total wall time:\n");
  std::printf("    %-40s %8s %12s %12s %12s\n", "name", "count", "total_ms", "mean_us",
              "max_us");
  for (const auto& [name, agg] : rows) {
    std::printf("    %-40s %8llu %12.3f %12.1f %12.1f\n", name.c_str(),
                static_cast<unsigned long long>(agg.count), agg.total_us / 1e3,
                agg.total_us / static_cast<double>(agg.count), agg.max_us);
  }
  return 0;
}

// Replays a soak failure log and diffs the regenerated JSONL against the input. The soak
// driver's determinism contract (src/soak/driver.h) is what makes a byte-level diff the
// right check: any divergence means the recorded failure is not reproducible from its log.
int CmdSoakReplay(const Flags& flags) {
  if (flags.positional.empty() || flags.positional.size() > 2) {
    return Usage();
  }
  Result<std::string> original = ReadFileToString(flags.positional[0]);
  if (!original.ok()) {
    return Fail(original.status());
  }
  std::string dir;
  if (flags.positional.size() == 2) {
    dir = flags.positional[1];
  } else {
    Result<std::string> temp = MakeTempDir("ucp_soak_replay");
    if (!temp.ok()) {
      return Fail(temp.status());
    }
    dir = *temp;
  }
  Result<SoakRunReport> replay = ReplaySoakLog(*original, dir);
  if (!replay.ok()) {
    return Fail(replay.status());
  }
  std::printf(
      "replayed %d events in %s: %lld iterations, %d invariant checks, %d kills, "
      "%d fs faults, %zu violations\n",
      replay->events_run, dir.c_str(),
      static_cast<long long>(replay->iterations_trained), replay->invariant_checks,
      replay->kills_fired, replay->fs_faults_fired, replay->violations.size());
  for (const std::string& violation : replay->violations) {
    std::printf("  violation: %s\n", violation.c_str());
  }
  const std::string replayed_text = replay->LogText();
  if (replayed_text != *original) {
    // Point at the first divergent line: that is where determinism broke.
    auto split_lines = [](const std::string& text) {
      std::vector<std::string> lines;
      size_t start = 0;
      while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos) end = text.size();
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
      }
      return lines;
    };
    const std::vector<std::string> a = split_lines(*original);
    const std::vector<std::string> b = split_lines(replayed_text);
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      const std::string* left = i < a.size() ? &a[i] : nullptr;
      const std::string* right = i < b.size() ? &b[i] : nullptr;
      if (left == nullptr || right == nullptr || *left != *right) {
        std::fprintf(stderr, "replay DIVERGED at line %zu:\n  recorded: %s\n  replayed: %s\n",
                     i + 1, left != nullptr ? left->c_str() : "<missing>",
                     right != nullptr ? right->c_str() : "<missing>");
        break;
      }
    }
    return 1;
  }
  std::printf("replay is byte-identical to the recorded log\n");
  return replay->violations.empty() ? 0 : 1;
}

// `ucp_tool ping --store ENDPOINT` — the first thing to run when saves hang: proves the
// daemon is reachable, shows the wire version it reports, the round-trip time, and the
// server's session/lease/staged-bytes counters including drain state. Connects lease-less
// (ttl 0) so the probe leaves no state behind on the server.
int CmdPing(const Flags& flags) {
  if (flags.store.empty() || !flags.positional.empty()) {
    return Usage();
  }
  RemoteStoreOptions options;
  options.lease_ttl_ms = 0;
  const auto dial_start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<RemoteStore>> store = RemoteStore::Connect(flags.store, options);
  if (!store.ok()) {
    return Fail(store.status());
  }
  const auto ping_start = std::chrono::steady_clock::now();
  Status pinged = (*store)->Ping();
  const auto ping_end = std::chrono::steady_clock::now();
  if (!pinged.ok()) {
    return Fail(pinged);
  }
  const double connect_ms =
      std::chrono::duration<double, std::milli>(ping_start - dial_start).count();
  const double rtt_ms =
      std::chrono::duration<double, std::milli>(ping_end - ping_start).count();
  Result<RemoteServerStat> stat = (*store)->ServerStat();
  if (!stat.ok()) {
    return Fail(stat.status());
  }
  std::printf("%s: alive  wire v%u  connect %.2f ms  ping %.2f ms\n", flags.store.c_str(),
              stat->wire_version, connect_ms, rtt_ms);
  std::printf("  sessions %u  named leases %u  staged %llu bytes%s\n", stat->sessions,
              stat->leases, static_cast<unsigned long long>(stat->staged_bytes),
              stat->draining ? "  DRAINING (refusing new sessions)" : "");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help") {
    PrintUsage(stdout);
    return 0;
  }
  Flags flags = ParseFlags(argc, argv, 2);
  if (!flags.bad_flag.empty() && command != "metrics") {
    std::fprintf(stderr, "unknown or malformed flag: %s\n", flags.bad_flag.c_str());
    return Usage();
  }
  if (command == "convert") {
    return CmdConvert(flags, /*foreign=*/false);
  }
  if (command == "convert-foreign") {
    return CmdConvert(flags, /*foreign=*/true);
  }
  if (command == "inspect") {
    return CmdInspect(flags);
  }
  if (command == "inspect-ckpt") {
    return CmdInspectCkpt(flags);
  }
  if (command == "spec") {
    return CmdSpec(flags);
  }
  if (command == "plan") {
    return CmdPlan(flags);
  }
  if (command == "validate") {
    return CmdValidate(flags, /*native=*/false);
  }
  if (command == "validate-ckpt") {
    return CmdValidate(flags, /*native=*/true);
  }
  if (command == "fsck") {
    return CmdFsck(flags);
  }
  if (command == "tags") {
    return CmdTags(flags);
  }
  if (command == "gc") {
    return CmdGc(flags);
  }
  if (command == "ping") {
    return CmdPing(flags);
  }
  if (command == "metrics") {
    // `metrics --store X` alone reads a live daemon; with a nested subcommand, --store
    // belongs to that subcommand (`metrics tags --store X`) and the wrapper applies.
    if (!flags.store.empty() && flags.positional.empty()) {
      return CmdMetricsRemote(flags);
    }
    return CmdMetrics(argc, argv);
  }
  if (command == "trace-merge") {
    return CmdTraceMerge(flags);
  }
  if (command == "trace-cat") {
    return CmdTraceCat(flags);
  }
  if (command == "soak-replay") {
    return CmdSoakReplay(flags);
  }
  return Usage();
}

}  // namespace
}  // namespace ucp

int main(int argc, char** argv) { return ucp::Main(argc, argv); }
