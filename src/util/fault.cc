#include "util/fault.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define MULTIEM_FAULT_HAS_EXIT 1
#endif

namespace multiem::util {
namespace {

/// Exit code of a `crash` action; distinct from assert/sanitizer aborts so
/// the kill-resume harness can tell an injected crash from a real bug.
constexpr int kCrashExitCode = 42;

Result<FaultAction> ParseAction(std::string_view token) {
  if (token == "fail") return FaultAction::kFail;
  if (token == "crash") return FaultAction::kCrash;
  if (token == "delay") return FaultAction::kDelay;
  return Status::InvalidArgument("unknown fault action '" + std::string(token) +
                                 "' (want fail|crash|delay)");
}

Result<uint64_t> ParseU64(std::string_view token) {
  if (token.empty()) return Status::InvalidArgument("empty numeric field");
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad numeric field '" +
                                     std::string(token) + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = [] {
    auto* inj = new FaultInjector();
    if (const char* env = std::getenv("MULTIEM_FAULT");
        env != nullptr && env[0] != '\0') {
      Status s = inj->ArmFromString(env);
      if (!s.ok()) {
        MULTIEM_LOG(kWarning) << "ignoring malformed MULTIEM_FAULT: "
                              << s.ToString();
      }
    }
    return inj;
  }();
  return *injector;
}

Status FaultInjector::Hit(std::string_view site) {
  FaultSpec triggered;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t count = 0;
    if (auto it = hits_.find(site); it != hits_.end()) {
      count = ++it->second;
    } else {
      hits_.emplace(std::string(site), 1);
      count = 1;
    }
    if (auto it = armed_.find(site); it != armed_.end()) {
      for (const FaultSpec& spec : it->second) {
        if (spec.hit == count) {
          triggered = spec;
          fire = true;
          break;
        }
      }
    }
  }
  if (!fire) return Status::Ok();
  switch (triggered.action) {
    case FaultAction::kFail:
      MULTIEM_LOG(kWarning) << "fault point '" << triggered.site
                            << "' (hit " << triggered.hit
                            << ") injecting failure";
      return Status::Internal("injected fault at '" + triggered.site + "'");
    case FaultAction::kCrash:
      MULTIEM_LOG(kWarning) << "fault point '" << triggered.site << "' (hit "
                            << triggered.hit << ") crashing process";
#ifdef MULTIEM_FAULT_HAS_EXIT
      _exit(kCrashExitCode);
#else
      std::abort();
#endif
    case FaultAction::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(triggered.delay_ms));
      return Status::Ok();
  }
  return Status::Ok();
}

void FaultInjector::Arm(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& specs = armed_[spec.site];
  for (FaultSpec& existing : specs) {
    if (existing.hit == spec.hit) {
      existing = spec;
      return;
    }
  }
  specs.push_back(spec);
}

Status FaultInjector::ArmFromString(std::string_view text) {
  std::vector<FaultSpec> parsed;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view clause = text.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;

    std::vector<std::string_view> fields;
    size_t fpos = 0;
    while (fpos <= clause.size()) {
      size_t fend = clause.find(':', fpos);
      if (fend == std::string_view::npos) fend = clause.size();
      fields.push_back(clause.substr(fpos, fend - fpos));
      fpos = fend + 1;
    }
    if (fields.size() < 2 || fields.size() > 4 || fields[0].empty()) {
      return Status::InvalidArgument(
          "fault clause '" + std::string(clause) +
          "' does not match site:action[:hit[:delay_ms]]");
    }
    FaultSpec spec;
    spec.site = std::string(fields[0]);
    auto action = ParseAction(fields[1]);
    MULTIEM_RETURN_IF_ERROR(action.status());
    spec.action = *action;
    if (fields.size() >= 3) {
      auto hit = ParseU64(fields[2]);
      MULTIEM_RETURN_IF_ERROR(hit.status());
      if (*hit == 0) {
        return Status::InvalidArgument("fault hit count is 1-based");
      }
      spec.hit = *hit;
    }
    if (fields.size() == 4) {
      auto delay = ParseU64(fields[3]);
      MULTIEM_RETURN_IF_ERROR(delay.status());
      spec.delay_ms = *delay;
    }
    parsed.push_back(std::move(spec));
  }
  for (const FaultSpec& spec : parsed) Arm(spec);
  return Status::Ok();
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  hits_.clear();
}

uint64_t FaultInjector::HitCount(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(site);
  return it == hits_.end() ? 0 : it->second;
}

}  // namespace multiem::util
