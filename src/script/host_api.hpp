// The SenseScript host API: §II-A's whitelist, one table row per function.
//
// A row is the only declaration of a host function: its name, signature,
// sensor (for acquisitions) and implementer. Every consumer reads the table:
// InstallStdlib binds the stdlib bodies, the executor runs print itself, the
// phone's TaskInstance binds the task facts and acquisitions, and the static
// analyzer checks calls against the signatures (and derives the per-app
// required-sensor manifest), which is how the server's ApplicationManager
// refuses scripts that call anything else. A new host function is one row.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <variant>

#include "common/result.hpp"
#include "common/sensor_kind.hpp"
#include "script/value.hpp"

namespace sor::script {

// Argument/return types as the analyzer's lattice sees them.
enum class SType { kNil, kBool, kNumber, kString, kList, kAny };

[[nodiscard]] constexpr const char* to_string(SType t) {
  switch (t) {
    case SType::kNil: return "nil";
    case SType::kBool: return "boolean";
    case SType::kNumber: return "number";
    case SType::kString: return "string";
    case SType::kList: return "list";
    case SType::kAny: return "any";
  }
  return "?";
}

// One argument slot. kListOrString models len()'s union-typed argument.
enum class ArgType { kNumber, kString, kList, kListOrString, kAny };

// Who implements a row: a pure stdlib body, the executor (print, whose
// output lands in ExecutionResult::output), or the phone, which reads a
// fact off the running task or acquires from the row's sensor.
using StdlibBody = Result<Value> (*)(std::span<const Value>);
struct ExecutorPrint {};
enum class TaskFact { kTimeS, kSampleWindowS, kRemainingInstants };
struct Acquisition {};

struct HostSignature {
  std::string_view name;
  int min_args = 0;
  int max_args = 0;              // -1: variadic (extra args typed `rest`)
  ArgType args[2] = {ArgType::kAny, ArgType::kAny};  // first two slots
  ArgType rest = ArgType::kAny;  // type of args beyond the first two
  SType ret = SType::kAny;
  std::variant<StdlibBody, ExecutorPrint, TaskFact, Acquisition> impl;
  // Set for data-acquisition functions: the sensor this call powers up.
  std::optional<SensorKind> sensor = std::nullopt;
};

[[nodiscard]] std::span<const HostSignature> HostSignatures();

// nullptr when `name` is not part of the host API.
[[nodiscard]] const HostSignature* FindHostSignature(std::string_view name);

// The one row the executor implements.
[[nodiscard]] const HostSignature& PrintSignature();

// Sensor behind an acquisition function, nullopt for non-acquisition names.
[[nodiscard]] std::optional<SensorKind> AcquisitionSensor(
    std::string_view fn_name);

}  // namespace sor::script
