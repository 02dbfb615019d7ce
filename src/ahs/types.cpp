#include "ahs/types.h"

#include "util/error.h"

namespace ahs {

const std::array<FailureModeInfo, kNumFailureModes>& failure_mode_table() {
  // Table 1 of the paper; rate multipliers from §4.1:
  //   λ6 = 4λ, λ5 = 3λ, λ4 = 2λ, λ3 = 2λ, λ2 = 2λ, λ1 = λ.
  static const std::array<FailureModeInfo, kNumFailureModes> kTable = {{
      {FailureMode::kFM1, "FM1", "No brakes", "A3", SeverityClass::kA,
       Maneuver::kAidedStop, 1.0},
      {FailureMode::kFM2, "FM2", "Inability to detect vehicles in adjacent lanes",
       "A2", SeverityClass::kA, Maneuver::kCrashStop, 2.0},
      {FailureMode::kFM3, "FM3", "Inter-vehicle communication failure", "A1",
       SeverityClass::kA, Maneuver::kGentleStop, 2.0},
      {FailureMode::kFM4, "FM4", "Transmission failure", "B2",
       SeverityClass::kB, Maneuver::kTakeImmediateExitEscorted, 2.0},
      {FailureMode::kFM5, "FM5", "Reduced steering capability", "B1",
       SeverityClass::kB, Maneuver::kTakeImmediateExit, 3.0},
      {FailureMode::kFM6, "FM6", "Single failure in a redundant sensor set",
       "C", SeverityClass::kC, Maneuver::kTakeImmediateExitNormal, 4.0},
  }};
  return kTable;
}

const FailureModeInfo& info(FailureMode fm) {
  return failure_mode_table()[static_cast<std::size_t>(fm)];
}

Maneuver maneuver_for(FailureMode fm) { return info(fm).maneuver; }

bool next_maneuver(Maneuver m, Maneuver& out) {
  if (m == Maneuver::kAidedStop) return false;
  out = static_cast<Maneuver>(static_cast<int>(m) + 1);
  return true;
}

const char* to_string(FailureMode fm) { return info(fm).name; }

const char* to_string(SeverityClass c) {
  switch (c) {
    case SeverityClass::kA: return "A";
    case SeverityClass::kB: return "B";
    case SeverityClass::kC: return "C";
  }
  return "?";
}

const char* to_string(Maneuver m) {
  switch (m) {
    case Maneuver::kTakeImmediateExitNormal: return "Take Immediate Exit-Normal";
    case Maneuver::kTakeImmediateExit: return "Take Immediate Exit";
    case Maneuver::kTakeImmediateExitEscorted: return "Take Immediate Exit-Escorted";
    case Maneuver::kGentleStop: return "Gentle Stop";
    case Maneuver::kCrashStop: return "Crash Stop";
    case Maneuver::kAidedStop: return "Aided Stop";
  }
  return "?";
}

const char* short_name(Maneuver m) {
  switch (m) {
    case Maneuver::kTakeImmediateExitNormal: return "TIE-N";
    case Maneuver::kTakeImmediateExit: return "TIE";
    case Maneuver::kTakeImmediateExitEscorted: return "TIE-E";
    case Maneuver::kGentleStop: return "GS";
    case Maneuver::kCrashStop: return "CS";
    case Maneuver::kAidedStop: return "AS";
  }
  return "?";
}

}  // namespace ahs
