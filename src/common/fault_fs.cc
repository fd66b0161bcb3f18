#include "src/common/fault_fs.h"

#include <atomic>
#include <cstring>
#include <mutex>
#include <utility>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace ucp {
namespace {

struct InjectorState {
  std::mutex mu;
  FaultPlan plan;
  int matching_ops = 0;  // ops matching (plan.op, plan.path_substr) since ArmFault
  bool fired = false;
};

// `armed` is the production fast path: a relaxed load decides whether to take the lock at
// all. The full state behind it changes only under the mutex.
std::atomic<bool> g_armed{false};
InjectorState& State() {
  static InjectorState* state = new InjectorState();
  return *state;
}

const char* FsOpName(FsOp op) {
  switch (op) {
    case FsOp::kWrite: return "write";
    case FsOp::kFsync: return "fsync";
    case FsOp::kRename: return "rename";
    case FsOp::kRead: return "read";
  }
  return "?";
}

struct AuditState {
  std::mutex mu;
  bool active = false;
  std::vector<IoAuditBucket> buckets;
  IoAuditReport report;
};

std::atomic<bool> g_audit_active{false};
AuditState& Audit() {
  static AuditState* state = new AuditState();
  return *state;
}

// The calling thread's audit context, in fixed storage sized to the longest job id
// (IsValidJobId). Trivially destructible and never allocated, so the hook stays safe to
// call during thread and static teardown and a thread's exit frees nothing. Zero-initialized:
// every thread starts with the empty context.
constexpr size_t kMaxAuditContextBytes = 64;
struct AuditContext {
  char bytes[kMaxAuditContextBytes];
  size_t size;
};
thread_local AuditContext t_audit_context;

std::string CurrentAuditContext() {
  return std::string(t_audit_context.bytes, t_audit_context.size);
}

}  // namespace

std::string IoAuditViolation::ToString() const {
  return std::string("thread[") + thread_context + "] " + FsOpName(op) + " on bucket[" +
         bucket + "] path " + path;
}

void SetThreadIoAuditContext(const std::string& context) {
  UCP_CHECK_LE(context.size(), kMaxAuditContextBytes) << "audit context " << context;
  std::memcpy(t_audit_context.bytes, context.data(), context.size());
  t_audit_context.size = context.size();
}

ScopedIoAudit::ScopedIoAudit(std::vector<IoAuditBucket> buckets) {
  AuditState& a = Audit();
  std::lock_guard<std::mutex> lock(a.mu);
  UCP_CHECK(!a.active) << "nested ScopedIoAudit";
  a.active = true;
  a.buckets = std::move(buckets);
  a.report = IoAuditReport();
  for (const IoAuditBucket& bucket : a.buckets) {
    a.report.ops_per_bucket[bucket.name] = 0;
  }
  g_audit_active.store(true, std::memory_order_release);
}

ScopedIoAudit::~ScopedIoAudit() {
  AuditState& a = Audit();
  std::lock_guard<std::mutex> lock(a.mu);
  g_audit_active.store(false, std::memory_order_release);
  a.active = false;
  a.buckets.clear();
}

IoAuditReport ScopedIoAudit::Report() const {
  AuditState& a = Audit();
  std::lock_guard<std::mutex> lock(a.mu);
  return a.report;
}

void ArmFault(const FaultPlan& plan) {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.plan = plan;
  s.matching_ops = 0;
  s.fired = false;
  g_armed.store(true, std::memory_order_release);
}

void DisarmFaults() {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  g_armed.store(false, std::memory_order_release);
  s.matching_ops = 0;
  s.fired = false;
}

bool FaultFired() {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.fired;
}

int FaultOpsSeen() {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.matching_ops;
}

namespace fault_internal {

FaultAction CheckFault(FsOp op, const std::string& path) {
  FaultAction action;
  if (!g_armed.load(std::memory_order_acquire)) {
    return action;
  }
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  if (op != s.plan.op || path.find(s.plan.path_substr) == std::string::npos) {
    return action;
  }
  ++s.matching_ops;
  if (s.plan.kind == FaultPlan::Kind::kTransient) {
    // Fail a window of [nth, nth + fail_count) consecutive matching attempts, then let the
    // retry succeed. `fired` latches on the first failed attempt.
    if (s.matching_ops >= s.plan.nth && s.matching_ops < s.plan.nth + s.plan.fail_count) {
      s.fired = true;
      action.transient = true;
    }
    return action;
  }
  if (s.fired || s.matching_ops != s.plan.nth) {
    return action;
  }
  s.fired = true;
  switch (s.plan.kind) {
    case FaultPlan::Kind::kFailStop:
      action.fail = true;
      break;
    case FaultPlan::Kind::kTornWrite:
      action.torn = true;
      // The caller reduces this mod the write size; Mix64 spreads the seed so nearby seeds
      // tear at unrelated offsets.
      action.torn_bytes = Mix64(s.plan.seed);
      break;
    case FaultPlan::Kind::kBitRot:
      action.bitrot = true;
      action.bitrot_bit = Mix64(s.plan.seed + 1);
      break;
    case FaultPlan::Kind::kTransient:
      break;  // handled above
  }
  return action;
}

void NoteFsOp(FsOp op, const std::string& path) {
  if (!g_audit_active.load(std::memory_order_acquire)) {
    return;
  }
  const std::string context = CurrentAuditContext();
  AuditState& a = Audit();
  std::lock_guard<std::mutex> lock(a.mu);
  if (!a.active) {
    return;
  }
  const IoAuditBucket* matched = nullptr;
  for (const IoAuditBucket& bucket : a.buckets) {
    for (const std::string& substr : bucket.path_substrs) {
      if (!substr.empty() && path.find(substr) != std::string::npos) {
        matched = &bucket;
        break;
      }
    }
    if (matched != nullptr) {
      break;
    }
  }
  if (matched == nullptr) {
    ++a.report.unmatched_ops;
    return;
  }
  ++a.report.ops_per_bucket[matched->name];
  if (!context.empty() && context != matched->name) {
    IoAuditViolation violation;
    violation.thread_context = context;
    violation.bucket = matched->name;
    violation.op = op;
    violation.path = path;
    a.report.violations.push_back(std::move(violation));
  }
}

}  // namespace fault_internal

}  // namespace ucp
