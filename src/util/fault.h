#ifndef MULTIEM_UTIL_FAULT_H_
#define MULTIEM_UTIL_FAULT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace multiem::util {

/// What an armed fault point does when its trigger hit is reached.
enum class FaultAction {
  kFail = 0,   ///< Return Status::Internal from the fault point.
  kCrash = 1,  ///< Terminate the process immediately (_exit, no cleanup).
  kDelay = 2,  ///< Sleep `delay_ms`, then continue normally.
};

/// One armed fault: the `hit`-th time (1-based) execution reaches the named
/// site, `action` triggers. A spec with hit == 3 lets the first two passes
/// through the site proceed untouched.
struct FaultSpec {
  std::string site;
  FaultAction action = FaultAction::kFail;
  uint64_t hit = 1;
  uint64_t delay_ms = 0;
};

/// Deterministic fault-injection plane. Fault points are compiled into the
/// binary unconditionally (`MULTIEM_FAULT_POINT("io.write.commit")`) and cost
/// one mutex-guarded map lookup when nothing is armed; tests and the crash
/// harness arm them programmatically (Arm / ScopedFaultArm) or via the
/// `MULTIEM_FAULT` environment variable:
///
///   MULTIEM_FAULT="site:action[:hit[:delay_ms]][,site:action...]"
///
/// where action is one of `fail`, `crash`, `delay`. Example:
///   MULTIEM_FAULT="merge.node.commit:crash:3"
/// crashes the process the third time a merge node is about to commit.
///
/// Site names are dotted lowercase paths, coarse-to-fine:
/// `<layer>.<operation>.<step>` — e.g. `io.write.stage`, `io.write.commit`,
/// `subprocess.fork`, `merge.node.commit`, `coordinator.reap`,
/// `pipeline.phase.commit`. Documented in docs/API.md "Crash safety & resume".
class FaultInjector {
 public:
  /// The process-wide injector. First access parses `MULTIEM_FAULT`.
  static FaultInjector& Global();

  /// Registers a passage through the named site: increments its hit counter
  /// and triggers the armed spec, if any, whose `hit` equals the new count.
  /// Returns OK when nothing triggers (the overwhelmingly common case).
  Status Hit(std::string_view site);

  /// Arms one fault. Replaces any existing spec for the same (site, hit).
  void Arm(const FaultSpec& spec);

  /// Parses one `site:action[:hit[:delay_ms]]` clause list (the MULTIEM_FAULT
  /// format) and arms every clause. Malformed clauses yield InvalidArgument
  /// and arm nothing.
  Status ArmFromString(std::string_view spec);

  /// Disarms everything and zeroes all hit counters.
  void Reset();

  /// Times execution has passed through `site` (armed or not).
  uint64_t HitCount(std::string_view site) const;

 private:
  FaultInjector() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::vector<FaultSpec>, std::less<>> armed_;
  std::map<std::string, uint64_t, std::less<>> hits_;
};

/// Test helper: arms a fault on construction, resets the global injector on
/// destruction so specs and counters never leak across tests.
class ScopedFaultArm {
 public:
  explicit ScopedFaultArm(const FaultSpec& spec) {
    FaultInjector::Global().Arm(spec);
  }
  ~ScopedFaultArm() { FaultInjector::Global().Reset(); }

  ScopedFaultArm(const ScopedFaultArm&) = delete;
  ScopedFaultArm& operator=(const ScopedFaultArm&) = delete;
};

}  // namespace multiem::util

/// Names a fault point. Compiled in always; returns Status::Internal from the
/// enclosing function when an armed `fail` spec triggers here.
#define MULTIEM_FAULT_POINT(site) \
  MULTIEM_RETURN_IF_ERROR(::multiem::util::FaultInjector::Global().Hit(site))

#endif  // MULTIEM_UTIL_FAULT_H_
