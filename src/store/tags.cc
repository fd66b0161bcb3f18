#include "src/store/tags.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "src/common/fs.h"
#include "src/common/strings.h"

namespace ucp {

bool IsValidJobId(const std::string& job) {
  if (job.empty()) {
    return true;  // the default namespace
  }
  if (job.size() > 64 || job == "latest") {  // `latest` would collide with pointer files
    return false;
  }
  for (char c : job) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

std::string JobTagPrefix(const std::string& job) {
  return job.empty() ? std::string() : job + ".";
}

std::string LatestFileName(const std::string& job) {
  return job.empty() ? std::string("latest") : "latest." + job;
}

bool ParseTagName(const std::string& name, std::string* job, int64_t* iteration) {
  constexpr char kPrefix[] = "global_step";
  // Job ids contain no '.', so the first dot (if any) separates job from tag body. Names
  // with trailing suffixes (".staging", ".ucp", ".quarantined") fail the strict digit
  // parse below and never match.
  std::string j;
  std::string rest;
  const size_t dot = name.find('.');
  if (dot == std::string::npos) {
    rest = name;
  } else {
    j = name.substr(0, dot);
    rest = name.substr(dot + 1);
    if (j.empty() || !IsValidJobId(j)) {
      return false;
    }
  }
  if (!StartsWith(rest, kPrefix)) {
    return false;
  }
  const char* digits = rest.c_str() + sizeof(kPrefix) - 1;
  if (*digits == '\0') {
    return false;
  }
  for (const char* p = digits; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(digits, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  if (job != nullptr) {
    *job = j;
  }
  if (iteration != nullptr) {
    *iteration = parsed;
  }
  return true;
}

std::string TagForIteration(int64_t iteration) {
  return "global_step" + std::to_string(iteration);
}

std::string TagForIteration(const std::string& job, int64_t iteration) {
  return JobTagPrefix(job) + TagForIteration(iteration);
}

std::string OptimStatesFileName(int dp, int tp, int pp, int sp) {
  return StrFormat("zero_pp_rank_%d_mp_rank_%02d_%03d_sp_%02d_optim_states", dp, tp, pp, sp);
}

std::string WipDirForTag(const std::string& dir, const std::string& tag) {
  return PathJoin(dir, tag) + kWipSuffix;
}

std::string StagingDirForTag(const std::string& dir, const std::string& tag) {
  return PathJoin(dir, tag) + kStagingSuffix;
}

bool IsSafeStoreName(const std::string& name) {
  if (name.empty() || name.size() > 255 || name == "." || name == "..") {
    return false;
  }
  for (char c : name) {
    if (c == '/' || c == '\0' || std::iscntrl(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

bool IsSafeStoreRelPath(const std::string& rel) {
  if (rel.empty() || rel.size() > 4096) {
    return false;
  }
  size_t begin = 0;
  while (begin <= rel.size()) {
    const size_t slash = rel.find('/', begin);
    const size_t end = slash == std::string::npos ? rel.size() : slash;
    if (!IsSafeStoreName(rel.substr(begin, end - begin))) {
      return false;
    }
    if (slash == std::string::npos) {
      break;
    }
    begin = slash + 1;
  }
  return true;
}

}  // namespace ucp
