// SenseScript execution interface: the host whitelist, the budgets and
// the result every execution reports. The executor is ir::Execute
// (script/ir/exec.hpp), run over a module compiled once per distinct
// script and shared read-only by every task that runs it.
//
// §II-A: "The script interpreter tells the task instance which Java
// function to call to obtain data from sensors ... security can be enforced
// here by only allowing a white list of unharmful functions to be called."
// Here the whitelist is declared once, in the host-API table
// (script/host_api.hpp), and bound at run time as C++ callbacks in a
// HostRegistry: a script calling anything unregistered fails with
// kPermissionDenied (exercised by the failure-injection tests).
//
// Scripts also run under an instruction budget so a buggy or malicious
// task description distributed by a server cannot spin a phone forever.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "script/value.hpp"

namespace sor::script {

// A host (native) function callable from scripts.
using HostFn = std::function<Result<Value>(std::span<const Value>)>;

class HostRegistry {
 public:
  // Register a callable under `name`. Re-registration replaces (used by
  // tests to stub sensors).
  void Register(const std::string& name, HostFn fn) {
    fns_[name] = std::move(fn);
  }

  [[nodiscard]] const HostFn* Find(const std::string& name) const {
    auto it = fns_.find(name);
    return it == fns_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::vector<std::string> Names() const {
    std::vector<std::string> names;
    for (const auto& [name, fn] : fns_) names.push_back(name);
    return names;
  }

 private:
  std::map<std::string, HostFn> fns_;
};

struct InterpreterOptions {
  // Maximum number of AST-node evaluations before the script is killed
  // (ir::Inst::ticks), the unit of the analyzer's SA404 worst case.
  std::uint64_t max_steps = 2'000'000;
  // Maximum call depth (scripts can define and call functions).
  int max_call_depth = 64;
};

struct ExecutionResult {
  Value return_value;        // value of a top-level `return`, else nil
  std::uint64_t steps = 0;   // AST evaluations consumed
  std::string output;        // everything print() emitted
};

// Installs every host-API row with a pure stdlib body (script/host_api.hpp)
// into a registry. `print` appends to ExecutionResult::output, so the
// executor runs it itself and it is not installed here.
void InstallStdlib(HostRegistry& registry);

}  // namespace sor::script
