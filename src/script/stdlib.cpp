// SenseScript builtin library.
//
// Pure helpers available to every sensing script: list manipulation,
// numeric utilities, and the statistics the paper's data-processing
// pipeline expects scripts to be able to compute on-device (e.g. averaging
// multiple readings taken within one Δt window before upload).
#include <algorithm>
#include <cmath>

#include "common/stats.hpp"
#include "script/interpreter.hpp"

namespace sor::script {

namespace {

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

}  // namespace

void InstallStdlib(HostRegistry& reg) {
  reg.Register("len", [](std::span<const Value> args) -> Result<Value> {
    if (args.size() != 1) return WrongArgs("len: expects 1 argument");
    if (args[0].is_list())
      return Value(static_cast<double>(args[0].as_list()->size()));
    if (args[0].is_string())
      return Value(static_cast<double>(args[0].as_string().size()));
    return WrongArgs("len: expects a list or string");
  });

  reg.Register("push", [](std::span<const Value> args) -> Result<Value> {
    if (args.size() != 2) return WrongArgs("push: expects (list, value)");
    Result<ListPtr> list = ListArg(args, 0, "push");
    if (!list.ok()) return list.error();
    if (WouldCycle(*list.value(), args[1])) return WrongArgs(kListCycleError);
    list.value()->push_back(args[1]);
    return Value(static_cast<double>(list.value()->size()));
  });

  reg.Register("abs", [](std::span<const Value> args) -> Result<Value> {
    Result<double> x = NumberArg(args, 0, "abs");
    if (!x.ok()) return x.error();
    return Value(std::fabs(x.value()));
  });

  reg.Register("floor", [](std::span<const Value> args) -> Result<Value> {
    Result<double> x = NumberArg(args, 0, "floor");
    if (!x.ok()) return x.error();
    return Value(std::floor(x.value()));
  });

  reg.Register("ceil", [](std::span<const Value> args) -> Result<Value> {
    Result<double> x = NumberArg(args, 0, "ceil");
    if (!x.ok()) return x.error();
    return Value(std::ceil(x.value()));
  });

  reg.Register("sqrt", [](std::span<const Value> args) -> Result<Value> {
    Result<double> x = NumberArg(args, 0, "sqrt");
    if (!x.ok()) return x.error();
    if (x.value() < 0) return WrongArgs("sqrt: negative argument");
    return Value(std::sqrt(x.value()));
  });

  reg.Register("min", [](std::span<const Value> args) -> Result<Value> {
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
  });

  reg.Register("max", [](std::span<const Value> args) -> Result<Value> {
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
  });

  reg.Register("tostring", [](std::span<const Value> args) -> Result<Value> {
    if (args.size() != 1) return WrongArgs("tostring: expects 1 argument");
    return Value(args[0].ToDisplayString());
  });

  reg.Register("tonumber", [](std::span<const Value> args) -> Result<Value> {
    if (args.size() != 1) return WrongArgs("tonumber: expects 1 argument");
    if (args[0].is_number()) return args[0];
    if (args[0].is_string()) {
      char* end = nullptr;
      const std::string& s = args[0].as_string();
      const double v = std::strtod(s.c_str(), &end);
      if (end == s.c_str() + s.size() && !s.empty()) return Value(v);
    }
    return Value();  // nil, like Lua
  });

  // On-device statistics over numeric lists (raw readings within Δt).
  reg.Register("mean", [](std::span<const Value> args) -> Result<Value> {
    Result<ListPtr> list = ListArg(args, 0, "mean");
    if (!list.ok()) return list.error();
    return Value(Mean(NumericElements(*list.value())));
  });

  reg.Register("stddev", [](std::span<const Value> args) -> Result<Value> {
    Result<ListPtr> list = ListArg(args, 0, "stddev");
    if (!list.ok()) return list.error();
    return Value(StdDev(NumericElements(*list.value())));
  });

  reg.Register("variance", [](std::span<const Value> args) -> Result<Value> {
    Result<ListPtr> list = ListArg(args, 0, "variance");
    if (!list.ok()) return list.error();
    return Value(Variance(NumericElements(*list.value())));
  });
}

}  // namespace sor::script
