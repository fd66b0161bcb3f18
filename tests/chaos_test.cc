// The survivability chaos matrix: every way a remote checkpoint session can lose its
// transport — connection drops mid-stream, the daemon dying and restarting, a client
// partitioned past its lease TTL, drain mode — either resumes and commits bit-exactly or
// fails typed with the store left fsck-clean. Scenarios:
//
//  1. Connection drop mid-WRITE_CHUNK: the leased client reconnects transparently, asks
//     WRITE_RESUME how far the upload got, resumes from the acknowledged offset (not byte
//     zero), and the committed bytes read back bit-exactly.
//  2. Daemon kill + restart mid-stream: the restarted daemon starts with no leases; the
//     client redials under a fresh lease, WRITE_RESUME finds the half-streamed upload in
//     the spool on disk, and the tag commits bit-exactly.
//  3. Lease expiry with a partitioned client: expiry (not socket death) reaps the staged
//     bytes and the lease, no partial tag ever becomes visible, and the store keeps
//     accepting fresh saves.
//  4. Drain mode: SESSION_OPEN is refused with a typed kUnavailable carrying a
//     machine-readable retry-after hint; established sessions keep working.
//  5. The soak driver's through_daemon mode executes a generated chaos schedule (conn
//     drops + daemon restarts) with zero invariant violations and replays byte-exactly.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/common/bytes.h"
#include "src/common/fs.h"
#include "src/model/config.h"
#include "src/obs/metrics.h"
#include "src/soak/driver.h"
#include "src/soak/schedule.h"
#include "src/store/remote_store.h"
#include "src/store/server.h"
#include "src/store/wire.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

std::string MetaJson(int64_t iteration) {
  CheckpointMeta meta;
  meta.model = TinyGpt();
  meta.strategy = ParallelConfig{1, 1, 1, 1, 0, 1};
  meta.iteration = iteration;
  meta.global_batch = 8;
  return meta.ToJson().Dump(2);
}

std::vector<uint8_t> Payload(size_t size, uint8_t seed) {
  std::vector<uint8_t> data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(seed + (i * 131 + i / 4093) % 251);
  }
  return data;
}

void ExpectFileEquals(Store& store, const std::string& rel,
                      const std::vector<uint8_t>& want) {
  Result<std::unique_ptr<ByteSource>> src = store.OpenRead(rel);
  ASSERT_TRUE(src.ok()) << rel << ": " << src.status();
  ASSERT_EQ((*src)->size(), want.size()) << rel;
  std::vector<uint8_t> got(want.size());
  if (!want.empty()) {
    ASSERT_TRUE((*src)->ReadAt(0, got.data(), got.size()).ok()) << rel;
  }
  EXPECT_TRUE(got == want) << rel << " read back different bytes";
}

// Waits (wall clock, generous under sanitizers) until `pred` holds.
bool PollUntil(const std::function<bool()>& pred, int deadline_ms = 20000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

// True when the daemon's anomaly flight recorder left a dump for `label` under
// <root>/flightrec/ (files are named flight-<seq>-serverd-<label>.*).
bool HasFlightRecordDump(const std::string& root, const std::string& label) {
  const std::string dir = PathJoin(root, "flightrec");
  if (!DirExists(dir)) {
    return false;
  }
  Result<std::vector<std::string>> entries = ListDir(dir);
  if (!entries.ok()) {
    return false;
  }
  const std::string needle = "serverd-" + label;
  for (const std::string& name : *entries) {
    if (name.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

class ChaosStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = *MakeTempDir("chaos_store");
    StartServer();
  }

  void TearDown() override {
    ClearSocketFaults();
    store_.reset();
    StopServer(/*drain=*/true);
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  StoreServerOptions ServerOptions() const {
    StoreServerOptions options;
    options.root = dir_;
    options.listen = "unix:" + dir_ + ".sock";  // sibling path: keeps List("") clean
    options.max_lease_ttl_ms = max_lease_ttl_ms_;
    return options;
  }

  void StartServer() {
    Result<std::unique_ptr<StoreServer>> started = StoreServer::Start(ServerOptions());
    ASSERT_TRUE(started.ok()) << started.status();
    server_ = std::move(*started);
  }

  void StopServer(bool drain) {
    if (server_ != nullptr) {
      server_->Shutdown(drain);
      server_.reset();
    }
  }

  // The "daemon was kill -9'd and came back" transition: no drain, same root, same
  // socket path, an empty lease table on the way up.
  void HardRestartServer() {
    StopServer(/*drain=*/false);
    StartServer();
  }

  std::shared_ptr<RemoteStore> Connect(const RemoteStoreOptions& options) {
    Result<std::shared_ptr<RemoteStore>> opened =
        RemoteStore::Connect(server_->endpoint(), options);
    EXPECT_TRUE(opened.ok()) << opened.status();
    return opened.ok() ? *opened : nullptr;
  }

  std::string dir_;
  uint32_t max_lease_ttl_ms_ = 60000;
  std::unique_ptr<StoreServer> server_;
  std::shared_ptr<RemoteStore> store_;
};

// ---------------------------------------------------------------------------------------
// 1. Connection drop mid-WRITE: reconnect + WRITE_RESUME, bit-exact commit, and the
//    resumed upload re-sends less than it salvaged.
// ---------------------------------------------------------------------------------------

TEST_F(ChaosStoreTest, ConnDropMidWriteResumesAndCommitsBitExact) {
  store_ = Connect(RemoteStoreOptions{});
  ASSERT_NE(store_, nullptr);
  ASSERT_FALSE(store_->lease_token().empty());

  const uint64_t reconnects0 = CounterValue("store.client.reconnects");
  const uint64_t resumed0 = CounterValue("store.client.resumed_bytes");
  const uint64_t restarted0 = CounterValue("store.client.restarted_bytes");

  // Three saves, each with a connection drop armed at a different depth into the chunk
  // stream (counted from arming: BEGIN + its OK are sends 1..2, chunks start at 3).
  const std::vector<uint8_t> body = Payload(6u * 1024 * 1024 + 13, 7);
  const int cut_points[] = {3, 5, 9};
  for (int op = 0; op < 3; ++op) {
    const std::string tag = "global_step" + std::to_string(op + 1);
    ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
    Result<std::unique_ptr<StoreWriter>> writer = store_->OpenTagForWrite(tag);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ArmSocketFault({SocketFault::Op::kSend, SocketFault::Kind::kEconnreset,
                    cut_points[op], 0});
    Status wrote = (*writer)->WriteFile("shard", body.data(), body.size());
    ClearSocketFaults();
    ASSERT_TRUE(wrote.ok()) << wrote.ToString();
    ASSERT_TRUE(store_->CommitTag(tag, MetaJson(op + 1)).ok());
    ExpectFileEquals(*store_, JoinRel(tag, "shard"), body);
  }

  const uint64_t reconnects = CounterValue("store.client.reconnects") - reconnects0;
  const uint64_t resumed = CounterValue("store.client.resumed_bytes") - resumed0;
  const uint64_t restarted = CounterValue("store.client.restarted_bytes") - restarted0;
  EXPECT_GE(reconnects, 3u);
  // The whole point of WRITE_RESUME: across the three drops the client salvaged
  // acknowledged prefixes and re-sent strictly less than it salvaged. (The tight <50%
  // re-send bound is checked by the fig15_server chaos arm, which fails its run.)
  EXPECT_GT(resumed, 0u);
  EXPECT_LT(restarted, resumed);

  // Store-level cleanliness: no stale staging dirs, no dangling latest pointer. (The
  // synthetic "shard" payloads are not full checkpoints, so per-tag shard validation
  // does not apply here.)
  Result<FsckReport> fsck = Fsck(dir_, /*quarantine=*/false);
  ASSERT_TRUE(fsck.ok()) << fsck.status();
  EXPECT_TRUE(fsck->notes.empty()) << fsck->ToString();
}

// ---------------------------------------------------------------------------------------
// 2. Daemon kill + restart mid-stream: the new daemon knows no lease; the client redials
//    under a fresh one, resumes from the spool on disk, and commits bit-exactly.
// ---------------------------------------------------------------------------------------

TEST_F(ChaosStoreTest, DaemonKillRestartMidStreamResumesFromSpool) {
  store_ = Connect(RemoteStoreOptions{});
  ASSERT_NE(store_, nullptr);
  ASSERT_FALSE(store_->lease_token().empty());

  const uint64_t reconnects0 = CounterValue("store.client.reconnects");
  const uint64_t resumed0 = CounterValue("store.client.resumed_bytes");

  const std::string tag = "global_step5";
  const std::vector<uint8_t> file_a = Payload(2u * 1024 * 1024, 21);
  const std::vector<uint8_t> file_b = Payload(6u * 1024 * 1024 + 5, 22);
  ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
  Result<std::unique_ptr<StoreWriter>> writer = store_->OpenTagForWrite(tag);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->WriteFile("a", file_a.data(), file_a.size()).ok());

  // Park the upload of "b" mid-chunk-stream long enough for the daemon to be killed and
  // restarted underneath it. Sends since arming, from 0: WRITE_BEGIN (carrying its trace
  // context when tracing is on), its OK, then the chunks, so send 5 is a client chunk send.
  ArmSocketFault({SocketFault::Op::kSend, SocketFault::Kind::kDelay, 5, 800});
  Status wrote_b = InternalError("not run");
  std::thread uploader([&] {
    wrote_b = (*writer)->WriteFile("b", file_b.data(), file_b.size());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  HardRestartServer();
  // The restarted daemon holds no lease and charges nothing for the bytes staged before.
  EXPECT_EQ(server_->active_leases(), 0);
  EXPECT_EQ(server_->staged_bytes(), 0u);

  uploader.join();
  ClearSocketFaults();
  ASSERT_TRUE(wrote_b.ok()) << wrote_b.ToString();
  EXPECT_GE(CounterValue("store.client.reconnects") - reconnects0, 1u);
  // WRITE_RESUME answered from the spool the killed daemon left on disk.
  EXPECT_GT(CounterValue("store.client.resumed_bytes") - resumed0, 0u);

  ASSERT_TRUE(store_->CommitTag(tag, MetaJson(5)).ok());
  EXPECT_EQ(server_->staged_bytes(), 0u);
  ExpectFileEquals(*store_, JoinRel(tag, "a"), file_a);
  ExpectFileEquals(*store_, JoinRel(tag, "b"), file_b);
  // No daemon state but the spool and staging survives a restart.
  EXPECT_FALSE(FileExists(PathJoin(dir_, ".ucp_serverd.journal")));

  // Store-level cleanliness: no stale staging dirs, no dangling latest pointer. (The
  // synthetic "shard" payloads are not full checkpoints, so per-tag shard validation
  // does not apply here.)
  Result<FsckReport> fsck = Fsck(dir_, /*quarantine=*/false);
  ASSERT_TRUE(fsck.ok()) << fsck.status();
  EXPECT_TRUE(fsck->notes.empty()) << fsck->ToString();
}

// ---------------------------------------------------------------------------------------
// 3. Lease expiry with a partitioned client: TTL expiry — not socket death — reaps the
//    staged bytes and the lease; no partial tag becomes visible; the store keeps working.
// ---------------------------------------------------------------------------------------

TEST_F(ChaosStoreTest, LeaseExpiryReapsPartitionedClientState) {
  // Rebind the daemon with a short lease clamp so expiry happens on test time scales.
  // Not TOO short: the server only refreshes the lease when a frame arrives, so the TTL
  // must comfortably exceed any scheduling stall between the doomed client's frames (and
  // between its last frame and the socket teardown) under a loaded sanitizer run --
  // otherwise the lease dies mid-write, or teardown releases it before the reaper can
  // count the expiry.
  StopServer(/*drain=*/true);
  max_lease_ttl_ms_ = 2000;
  StartServer();

  const uint64_t expiries0 = CounterValue("store.server.lease_expiries");

  const std::string tag = "global_step9";
  const std::vector<uint8_t> body = Payload(1u * 1024 * 1024, 33);
  {
    std::shared_ptr<RemoteStore> doomed = Connect(RemoteStoreOptions{});
    ASSERT_NE(doomed, nullptr);
    ASSERT_FALSE(doomed->lease_token().empty());  // granted, clamped to 2s
    ASSERT_TRUE(doomed->ResetTagStaging(tag).ok());
    Result<std::unique_ptr<StoreWriter>> writer = doomed->OpenTagForWrite(tag);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->WriteFile("shard", body.data(), body.size()).ok());
    EXPECT_GE(server_->staged_bytes(), body.size());
    // The client partitions away mid-save and never comes back.
    doomed->CloseForTest();
  }

  // Socket death alone must NOT have released anything; expiry must. Poll past the TTL.
  EXPECT_TRUE(PollUntil([&] {
    return server_->staged_bytes() == 0 && server_->active_leases() == 0;
  })) << "staged=" << server_->staged_bytes() << " leases=" << server_->active_leases();
  EXPECT_GE(CounterValue("store.server.lease_expiries") - expiries0, 1u);

  // The reaper leaves a server-side flight-record dump for the expiry (trace ring +
  // metrics snapshot), written off the lock after the lease is reclaimed.
  EXPECT_TRUE(PollUntil([&] { return HasFlightRecordDump(dir_, "lease-expiry"); }))
      << "no flightrec dump for the expired lease under " << dir_;

  // The half-staged tag never became visible, and a fresh client can commit over it.
  store_ = Connect(RemoteStoreOptions{});
  ASSERT_NE(store_, nullptr);
  EXPECT_FALSE(IsTagComplete(*store_, tag));
  ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
  Result<std::unique_ptr<StoreWriter>> writer = store_->OpenTagForWrite(tag);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->WriteFile("shard", body.data(), body.size()).ok());
  ASSERT_TRUE(store_->CommitTag(tag, MetaJson(9)).ok());
  ExpectFileEquals(*store_, JoinRel(tag, "shard"), body);
}

// ---------------------------------------------------------------------------------------
// 4. Drain mode: SESSION_OPEN refused with typed kUnavailable + a retry-after hint;
//    established sessions keep serving.
// ---------------------------------------------------------------------------------------

// One raw frame exchange on `fd`; the drain refusal's retry-after hint is not surfaced
// by RemoteStore's public API, so the wire payload is checked directly.
WireFrame MustExchange(int fd, WireOp op, const std::vector<uint8_t>& payload) {
  Status sent = SendFrame(fd, op, payload);
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  Result<WireFrame> reply = RecvFrame(fd);
  EXPECT_TRUE(reply.ok()) << reply.status();
  return reply.ok() ? *reply : WireFrame{};
}

TEST_F(ChaosStoreTest, DrainRefusesNewLeasesWithRetryAfterHint) {
  // An established, leased session from before the drain.
  store_ = Connect(RemoteStoreOptions{});
  ASSERT_NE(store_, nullptr);
  ASSERT_FALSE(store_->lease_token().empty());

  // A raw connection whose replies we can inspect byte-for-byte.
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::thread serve([&] { server_->ServeConnectionForTest(sv[1]); });
  {
    ByteWriter hello;
    hello.PutU32(kWireVersion);
    hello.PutU32(kWireVersion);
    EXPECT_EQ(MustExchange(sv[0], WireOp::kHello, hello.buffer()).op, WireOp::kHelloOk);
    ByteWriter open;
    open.PutString("chaos-drain-lease");
    open.PutU32(5000);
    EXPECT_EQ(MustExchange(sv[0], WireOp::kSessionOpen, open.buffer()).op,
              WireOp::kSessionOpenOk);
  }

  server_->BeginDrain();
  EXPECT_TRUE(server_->draining());

  // New leases are refused typed, with the machine-readable hint.
  auto expect_drain_refusal = [](const WireFrame& reply) {
    ASSERT_EQ(reply.op, WireOp::kError);
    ByteReader r(reply.payload.data(), reply.payload.size());
    Result<uint8_t> code = r.GetU8();
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(*code, static_cast<uint8_t>(StatusCode::kUnavailable));
    Result<std::string> message = r.GetString();
    ASSERT_TRUE(message.ok());
    EXPECT_NE(message->find("drain"), std::string::npos) << *message;
    ASSERT_GE(r.remaining(), 4u) << "drain refusal is missing the retry-after hint";
    Result<uint32_t> hint = r.GetU32();
    ASSERT_TRUE(hint.ok());
    EXPECT_EQ(*hint, 1000u);
  };
  // Op 22 (SESSION_RENEW, retired) is an unknown op: an error without the hint.
  const WireFrame retired = MustExchange(sv[0], static_cast<WireOp>(22), {});
  ASSERT_EQ(retired.op, WireOp::kError);
  EXPECT_EQ(retired.payload.at(0), static_cast<uint8_t>(StatusCode::kUnimplemented));

  // SESSION_OPENs are refused both on the wire and at the client, where Connect surfaces
  // the refusal as a typed kUnavailable.
  ByteWriter open;
  open.PutString("chaos-drain-lease-2");
  open.PutU32(5000);
  expect_drain_refusal(MustExchange(sv[0], WireOp::kSessionOpen, open.buffer()));
  Result<std::shared_ptr<RemoteStore>> refused =
      RemoteStore::Connect(server_->endpoint(), RemoteStoreOptions{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable) << refused.status();

  ::close(sv[0]);
  serve.join();

  // The established session keeps serving: saves finish during drain, and SERVER_STAT
  // advertises the drain so orchestration can route new work elsewhere.
  Result<RemoteServerStat> stat = store_->ServerStat();
  ASSERT_TRUE(stat.ok()) << stat.status();
  EXPECT_TRUE(stat->draining);
  const std::string tag = "global_step2";
  ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
  Result<std::unique_ptr<StoreWriter>> writer = store_->OpenTagForWrite(tag);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->WriteFile("shard", std::string("drained save")).ok());
  ASSERT_TRUE(store_->CommitTag(tag, MetaJson(2)).ok());
  EXPECT_TRUE(IsTagComplete(*store_, tag));
}

// ---------------------------------------------------------------------------------------
// 5. The soak driver's through_daemon mode: a generated schedule that interleaves
//    training with connection drops and daemon restarts runs with zero invariant
//    violations (I1–I8) and its failure log replays byte-identically.
// ---------------------------------------------------------------------------------------

TEST(ChaosSoakTest, ThroughDaemonScheduleRunsCleanAndReplays) {
  SoakOptions options;
  options.seed = 20260807;
  options.num_blocks = 3;
  options.max_train_iters = 3;
  options.max_kills = 1;
  options.job = "chaos_soak";
  options.through_daemon = true;
  options.dir = *MakeTempDir("chaos_soak");

  SoakRunReport report = RunSoak(options);
  EXPECT_TRUE(report.ok) << report.status.ToString();
  EXPECT_TRUE(report.violations.empty())
      << report.violations.size() << " violations, first: " << report.violations.front();
  EXPECT_GT(report.invariant_checks, 0);
  // Generation places one connection drop and one daemon restart unconditionally.
  EXPECT_GE(report.conn_drops_armed, 1);
  EXPECT_GE(report.daemon_restarts, 1);

  const std::string fresh = *MakeTempDir("chaos_soak_replay");
  Result<SoakRunReport> replay = ReplaySoakLog(report.LogText(), fresh);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->violations.empty());
  EXPECT_EQ(replay->LogText(), report.LogText()) << "through_daemon replay diverged";

  ASSERT_TRUE(RemoveAll(options.dir).ok());
  ASSERT_TRUE(RemoveAll(fresh).ok());
}

}  // namespace
}  // namespace ucp
