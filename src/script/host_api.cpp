#include "script/host_api.hpp"

#include <cmath>
#include <string>

#include "common/stats.hpp"
#include "script/interpreter.hpp"

namespace sor::script {

namespace {

// --- pure stdlib: list manipulation, numeric utilities and the statistics
// a script computes on-device (e.g. averaging one Δt window's readings).

Error WrongArgs(const std::string& what) {
  return Error{Errc::kScriptError, what};
}

Result<double> NumberArg(std::span<const Value> args, std::size_t i,
                         const char* fn) {
  if (i >= args.size() || !args[i].is_number())
    return WrongArgs(std::string(fn) + ": argument " + std::to_string(i + 1) +
                     " must be a number");
  return args[i].as_number();
}

Result<ListPtr> ListArg(std::span<const Value> args, std::size_t i,
                        const char* fn) {
  if (i >= args.size() || !args[i].is_list())
    return WrongArgs(std::string(fn) + ": argument " + std::to_string(i + 1) +
                     " must be a list");
  return args[i].as_list();
}

std::vector<double> NumericElements(const List& list) {
  std::vector<double> xs;
  xs.reserve(list.size());
  for (const Value& v : list) {
    if (v.is_number()) xs.push_back(v.as_number());
  }
  return xs;
}

Result<Value> Len(std::span<const Value> args) {
  if (args.size() != 1) return WrongArgs("len: expects 1 argument");
  if (args[0].is_list())
    return Value(static_cast<double>(args[0].as_list()->size()));
  if (args[0].is_string())
    return Value(static_cast<double>(args[0].as_string().size()));
  return WrongArgs("len: expects a list or string");
}

Result<Value> Push(std::span<const Value> args) {
  if (args.size() != 2) return WrongArgs("push: expects (list, value)");
  Result<ListPtr> list = ListArg(args, 0, "push");
  if (!list.ok()) return list.error();
  if (WouldCycle(*list.value(), args[1])) return WrongArgs(kListCycleError);
  list.value()->push_back(args[1]);
  return Value(static_cast<double>(list.value()->size()));
}

Result<Value> Abs(std::span<const Value> args) {
  Result<double> x = NumberArg(args, 0, "abs");
  if (!x.ok()) return x.error();
  return Value(std::fabs(x.value()));
}

Result<Value> Floor(std::span<const Value> args) {
  Result<double> x = NumberArg(args, 0, "floor");
  if (!x.ok()) return x.error();
  return Value(std::floor(x.value()));
}

Result<Value> Ceil(std::span<const Value> args) {
  Result<double> x = NumberArg(args, 0, "ceil");
  if (!x.ok()) return x.error();
  return Value(std::ceil(x.value()));
}

Result<Value> Sqrt(std::span<const Value> args) {
  Result<double> x = NumberArg(args, 0, "sqrt");
  if (!x.ok()) return x.error();
  if (x.value() < 0) return WrongArgs("sqrt: negative argument");
  return Value(std::sqrt(x.value()));
}

Result<Value> Min(std::span<const Value> args) {
  if (args.empty()) return WrongArgs("min: expects at least 1 argument");
  double best = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    Result<double> x = NumberArg(args, i, "min");
    if (!x.ok()) return x.error();
    if (first || x.value() < best) best = x.value();
    first = false;
  }
  return Value(best);
}

Result<Value> Max(std::span<const Value> args) {
  if (args.empty()) return WrongArgs("max: expects at least 1 argument");
  double best = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    Result<double> x = NumberArg(args, i, "max");
    if (!x.ok()) return x.error();
    if (first || x.value() > best) best = x.value();
    first = false;
  }
  return Value(best);
}

Result<Value> ToString(std::span<const Value> args) {
  if (args.size() != 1) return WrongArgs("tostring: expects 1 argument");
  return Value(args[0].ToDisplayString());
}

Result<Value> ToNumber(std::span<const Value> args) {
  if (args.size() != 1) return WrongArgs("tonumber: expects 1 argument");
  if (args[0].is_number()) return args[0];
  if (args[0].is_string()) {
    char* end = nullptr;
    const std::string& s = args[0].as_string();
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() + s.size() && !s.empty()) return Value(v);
  }
  return Value();  // nil, like Lua
}

// On-device statistics over numeric lists (raw readings within Δt).
Result<Value> ListMean(std::span<const Value> args) {
  Result<ListPtr> list = ListArg(args, 0, "mean");
  if (!list.ok()) return list.error();
  return Value(Mean(NumericElements(*list.value())));
}

Result<Value> ListStdDev(std::span<const Value> args) {
  Result<ListPtr> list = ListArg(args, 0, "stddev");
  if (!list.ok()) return list.error();
  return Value(StdDev(NumericElements(*list.value())));
}

Result<Value> ListVariance(std::span<const Value> args) {
  Result<ListPtr> list = ListArg(args, 0, "variance");
  if (!list.ok()) return list.error();
  return Value(Variance(NumericElements(*list.value())));
}

// --- the table --------------------------------------------------------------

using enum ArgType;

// A fact about the running task: no arguments, a number.
constexpr HostSignature FactRow(std::string_view name, TaskFact fact) {
  return {name, 0, 0, {kAny, kAny}, kAny, SType::kNumber, fact};
}

// An acquisition: get_*(samples?, window_s?) -> list of readings. Names
// follow the paper's Lua samples (get_light_readings, get_location).
constexpr HostSignature AcquisitionRow(std::string_view name,
                                       SensorKind sensor) {
  return {name, 0, 2, {kNumber, kNumber}, kAny, SType::kList, Acquisition{},
          sensor};
}

constexpr HostSignature kSignatures[] = {
    // The executor's own, first so that PrintSignature() is one load.
    {"print", 0, -1, {kAny, kAny}, kAny, SType::kNil, ExecutorPrint{}},

    // --- pure stdlib ------------------------------------------------------
    {"len", 1, 1, {kListOrString, kAny}, kAny, SType::kNumber, Len},
    {"push", 2, 2, {kList, kAny}, kAny, SType::kNumber, Push},
    {"abs", 1, 1, {kNumber, kAny}, kAny, SType::kNumber, Abs},
    {"floor", 1, 1, {kNumber, kAny}, kAny, SType::kNumber, Floor},
    {"ceil", 1, 1, {kNumber, kAny}, kAny, SType::kNumber, Ceil},
    {"sqrt", 1, 1, {kNumber, kAny}, kAny, SType::kNumber, Sqrt},
    {"min", 1, -1, {kNumber, kNumber}, kNumber, SType::kNumber, Min},
    {"max", 1, -1, {kNumber, kNumber}, kNumber, SType::kNumber, Max},
    {"tostring", 1, 1, {kAny, kAny}, kAny, SType::kString, ToString},
    // tonumber returns number-or-nil, so its static type is `any`.
    {"tonumber", 1, 1, {kAny, kAny}, kAny, SType::kAny, ToNumber},
    {"mean", 1, 1, {kList, kAny}, kAny, SType::kNumber, ListMean},
    {"stddev", 1, 1, {kList, kAny}, kAny, SType::kNumber, ListStdDev},
    {"variance", 1, 1, {kList, kAny}, kAny, SType::kNumber, ListVariance},

    // --- task facts (phone/task_instance.cpp) -----------------------------
    FactRow("get_time_s", TaskFact::kTimeS),
    FactRow("get_sample_window_s", TaskFact::kSampleWindowS),
    FactRow("get_remaining_instants", TaskFact::kRemainingInstants),

    // --- data acquisition, one per supported sensor (phone/task_instance.cpp)
    AcquisitionRow("get_accelerometer_readings", SensorKind::kAccelerometer),
    AcquisitionRow("get_gyroscope_readings", SensorKind::kGyroscope),
    AcquisitionRow("get_compass_readings", SensorKind::kCompass),
    AcquisitionRow("get_location", SensorKind::kGps),
    AcquisitionRow("get_noise_readings", SensorKind::kMicrophone),
    AcquisitionRow("get_light_readings", SensorKind::kDroneLight),
    AcquisitionRow("get_ambient_light_readings", SensorKind::kLight),
    AcquisitionRow("get_wifi_readings", SensorKind::kWifi),
    AcquisitionRow("get_altitude_readings", SensorKind::kBarometer),
    AcquisitionRow("get_temperature_readings", SensorKind::kDroneTemperature),
    AcquisitionRow("get_humidity_readings", SensorKind::kDroneHumidity),
    AcquisitionRow("get_pressure_readings", SensorKind::kDronePressure),
    AcquisitionRow("get_gas_co_readings", SensorKind::kDroneGasCo),
    AcquisitionRow("get_color_readings", SensorKind::kDroneColor),
};
static_assert(std::holds_alternative<ExecutorPrint>(kSignatures[0].impl));

}  // namespace

std::span<const HostSignature> HostSignatures() { return kSignatures; }

const HostSignature* FindHostSignature(std::string_view name) {
  for (const HostSignature& s : kSignatures) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const HostSignature& PrintSignature() { return kSignatures[0]; }

std::optional<SensorKind> AcquisitionSensor(std::string_view fn_name) {
  const HostSignature* s = FindHostSignature(fn_name);
  return s == nullptr ? std::nullopt : s->sensor;
}

void InstallStdlib(HostRegistry& registry) {
  for (const HostSignature& s : kSignatures) {
    if (const StdlibBody* body = std::get_if<StdlibBody>(&s.impl))
      registry.Register(std::string(s.name), *body);
  }
}

}  // namespace sor::script
