// Core vocabulary of the paper's model: failure modes FM1–FM6 (Table 1),
// severity classes (A3 > A2 > A1 > B2 = B1 > C), recovery maneuvers, and the
// escalation chain of Fig 2.
//
// Maneuvers are ordered by escalation *stage*: when a maneuver fails the
// vehicle attempts the next (higher-priority) one, ending at Aided Stop;
// an Aided Stop failure leaves the vehicle as a free agent (v_KO).
#pragma once

#include <array>
#include <string>

#include "util/error.h"

namespace ahs {

/// The six failure modes of Table 1.
enum class FailureMode { kFM1 = 0, kFM2, kFM3, kFM4, kFM5, kFM6 };

inline constexpr std::array<FailureMode, 6> kAllFailureModes = {
    FailureMode::kFM1, FailureMode::kFM2, FailureMode::kFM3,
    FailureMode::kFM4, FailureMode::kFM5, FailureMode::kFM6};

/// Severity classes in decreasing criticality: A (vehicle must stop on the
/// highway), B (vehicle exits with assistance), C (vehicle exits normally).
enum class SeverityClass { kA = 0, kB, kC };

/// Recovery maneuvers ordered by escalation stage (Fig 2): a failed
/// maneuver escalates to the next enumerator.
enum class Maneuver {
  kTakeImmediateExitNormal = 0,  ///< TIE-N (class C)
  kTakeImmediateExit = 1,        ///< TIE   (class B1)
  kTakeImmediateExitEscorted = 2,///< TIE-E (class B2)
  kGentleStop = 3,               ///< GS    (class A1)
  kCrashStop = 4,                ///< CS    (class A2)
  kAidedStop = 5,                ///< AS    (class A3)
};

inline constexpr std::array<Maneuver, 6> kAllManeuvers = {
    Maneuver::kTakeImmediateExitNormal,   Maneuver::kTakeImmediateExit,
    Maneuver::kTakeImmediateExitEscorted, Maneuver::kGentleStop,
    Maneuver::kCrashStop,                 Maneuver::kAidedStop};

inline constexpr std::size_t kNumFailureModes = 6;
inline constexpr std::size_t kNumManeuvers = 6;

/// One row of Table 1.
struct FailureModeInfo {
  FailureMode mode;
  const char* name;            ///< "FM1" ...
  const char* example_cause;   ///< "No brakes" ...
  const char* severity_label;  ///< "A3", "A2", "A1", "B2", "B1", "C"
  SeverityClass severity;
  Maneuver maneuver;           ///< associated recovery maneuver
  double rate_multiplier;      ///< λ_i / λ  (§4.1: 1, 2, 2, 2, 3, 4)
};

/// Table 1 with the §4.1 rate multipliers.
const std::array<FailureModeInfo, kNumFailureModes>& failure_mode_table();

/// Row of Table 1 for one failure mode.
const FailureModeInfo& info(FailureMode fm);

/// Severity class of the failure mode a maneuver stage recovers — used for
/// the Table 2 accounting of ongoing maneuvers (escalation re-classes a
/// vehicle's contribution: a failed TIE-E escalates to GS, class B → A).
constexpr SeverityClass maneuver_class(Maneuver m) {
  switch (m) {
    case Maneuver::kTakeImmediateExitNormal:
      return SeverityClass::kC;
    case Maneuver::kTakeImmediateExit:
    case Maneuver::kTakeImmediateExitEscorted:
      return SeverityClass::kB;
    case Maneuver::kGentleStop:
    case Maneuver::kCrashStop:
    case Maneuver::kAidedStop:
      return SeverityClass::kA;
  }
  throw util::InvariantError("unknown maneuver");
}

/// Maneuver the given failure mode triggers (Table 1).
Maneuver maneuver_for(FailureMode fm);

/// Next maneuver in the escalation chain; AidedStop has no successor
/// (returns false).
bool next_maneuver(Maneuver m, Maneuver& out);

/// Escalation-stage index (0 = TIE-N lowest ... 5 = AS highest priority).
inline int stage(Maneuver m) { return static_cast<int>(m); }

const char* to_string(FailureMode fm);
const char* to_string(SeverityClass c);
const char* to_string(Maneuver m);
/// Short maneuver label as the paper writes it ("TIE-N", "GS", ...).
const char* short_name(Maneuver m);

}  // namespace ahs
