#include "script/analysis/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "script/host_api.hpp"
#include "script/analysis/passes.hpp"
#include "script/ir/lower.hpp"
#include "script/parser.hpp"
#include "sensors/energy.hpp"

namespace sor::script::analysis {

namespace {

// ===========================================================================
// Pass 1+2+3: scope/flow, types, capability.
//
// One abstract interpretation walk mirroring the language's scoping rules
// exactly (as the AST walker in tests/ast_oracle.cpp implements them and
// the IR executor matches): a scope stack whose bottom is the global scope,
// block scopes pushed for if/while/for bodies, `local` declaring in the
// innermost scope, plain assignment writing the nearest enclosing binding
// or else creating a global. Branches are joined; a name
// bound on only one incoming path becomes "maybe unassigned" (SA102).
// ===========================================================================

struct VarInfo {
  SType type = SType::kAny;
  bool maybe = false;  // possibly unassigned on some path
};

using Scope = std::map<std::string, VarInfo>;

SType JoinType(SType a, SType b) { return a == b ? a : SType::kAny; }

bool CouldBe(SType t, SType want) { return t == want || t == SType::kAny; }

class ScopeTypeChecker {
 public:
  ScopeTypeChecker(const Program& program, const AnalyzerOptions& options,
                   std::vector<Diagnostic>& out,
                   std::set<SensorKind>& required)
      : program_(program), options_(options), out_(out), required_(required) {}

  void Run() {
    Collect(program_.statements, /*top_level_main=*/true);
    scopes_.clear();
    scopes_.emplace_back();  // globals
    in_function_ = false;
    loop_depth_ = 0;
    WalkBlock(program_.statements);
    // Function bodies are checked against the set of every global the
    // program could ever create (functions run with whatever globals exist
    // at call time, so flow-sensitive "maybe unassigned" does not apply).
    for (const auto& [name, fn] : functions_) WalkFunction(*fn);
  }

 private:
  void Emit(std::string code, Severity sev, int line, std::string msg) {
    out_.push_back(
        Diagnostic{std::move(code), sev, line, std::move(msg)});
  }

  bool IsExtraHostFn(const std::string& name) const {
    return std::find(options_.extra_host_fns.begin(),
                     options_.extra_host_fns.end(),
                     name) != options_.extra_host_fns.end();
  }

  // --- pre-pass: every name the program can bind, anywhere ----------------

  void Collect(const std::vector<StmtPtr>& body, bool top_level_main) {
    for (const StmtPtr& sp : body) {
      const Stmt& st = *sp;
      switch (st.kind) {
        case Stmt::Kind::kLocal:
          assigned_anywhere_.insert(st.name);
          // A top-level `local` lives in the interpreter's global scope, so
          // function bodies can see it.
          if (top_level_main) global_candidates_.insert(st.name);
          break;
        case Stmt::Kind::kAssign:
          if (!st.target_index) {
            assigned_anywhere_.insert(st.name);
            // Plain assignment creates a global when no local exists.
            global_candidates_.insert(st.name);
          }
          break;
        case Stmt::Kind::kNumericFor:
          assigned_anywhere_.insert(st.name);
          Collect(st.body, false);
          break;
        case Stmt::Kind::kWhile:
          Collect(st.body, false);
          break;
        case Stmt::Kind::kIf:
          Collect(st.body, false);
          Collect(st.else_body, false);
          break;
        case Stmt::Kind::kFunction: {
          auto [it, inserted] = functions_.emplace(st.name, &st);
          const int arity = static_cast<int>(st.params.size());
          if (inserted) {
            fn_arity_[st.name] = arity;
          } else if (fn_arity_[st.name] != arity) {
            fn_arity_[st.name] = -1;  // conflicting defs: skip arity checks
          }
          for (const std::string& p : st.params)
            assigned_anywhere_.insert(p);
          Collect(st.body, false);
          break;
        }
        case Stmt::Kind::kExpr:
        case Stmt::Kind::kReturn:
        case Stmt::Kind::kBreak:
          break;
      }
    }
  }

  // --- environment --------------------------------------------------------

  VarInfo* Find(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (auto v = it->find(name); v != it->end()) return &v->second;
    }
    return nullptr;
  }

  bool VisibleInOuterScope(const std::string& name) const {
    for (std::size_t i = 0; i + 1 < scopes_.size(); ++i) {
      if (scopes_[i].count(name) != 0) return true;
    }
    return false;
  }

  // Merge `b` into `a` (same stack depth): a name bound in only one path is
  // maybe-unassigned after the join.
  static void MergeScopes(std::vector<Scope>& a, const std::vector<Scope>& b) {
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      for (auto& [name, info] : a[i]) {
        auto it = b[i].find(name);
        if (it == b[i].end()) {
          info.maybe = true;
        } else {
          info.type = JoinType(info.type, it->second.type);
          info.maybe = info.maybe || it->second.maybe;
        }
      }
      for (const auto& [name, info] : b[i]) {
        if (a[i].count(name) == 0) {
          a[i][name] = VarInfo{info.type, true};
        }
      }
    }
  }

  // --- statements ---------------------------------------------------------

  // Returns true when the block always transfers control out (return/break),
  // i.e. statements after it in the enclosing block are dead.
  bool WalkBlock(const std::vector<StmtPtr>& body) {
    bool terminated = false;
    for (const StmtPtr& st : body) {
      if (terminated) {
        Emit("SA104", Severity::kWarning, st->line,
             "unreachable statement (control flow never reaches here)");
        // Dead statements never execute: skip them rather than cascade.
        return true;
      }
      terminated = WalkStmt(*st);
    }
    return terminated;
  }

  bool WalkStmt(const Stmt& st) {
    switch (st.kind) {
      case Stmt::Kind::kLocal: {
        const SType t = WalkExpr(*st.expr);
        if (VisibleInOuterScope(st.name)) {
          Emit("SA103", Severity::kWarning, st.line,
               "local '" + st.name + "' shadows an outer variable");
        }
        scopes_.back()[st.name] = VarInfo{t, false};
        return false;
      }
      case Stmt::Kind::kAssign: {
        const SType t = WalkExpr(*st.expr);
        if (st.target_index) {
          const SType lt = WalkExpr(*st.target_index->lhs);
          if (!CouldBe(lt, SType::kList)) {
            Emit("SA201", Severity::kError, st.line,
                 "cannot index a " + std::string(to_string(lt)));
          }
          const SType it = WalkExpr(*st.target_index->rhs);
          if (!CouldBe(it, SType::kNumber)) {
            Emit("SA201", Severity::kError, st.line,
                 "list index must be a number, got " +
                     std::string(to_string(it)));
          }
          return false;
        }
        if (VarInfo* v = Find(st.name)) {
          v->type = t;
          v->maybe = false;
        } else {
          scopes_.front()[st.name] = VarInfo{t, false};  // creates a global
        }
        return false;
      }
      case Stmt::Kind::kExpr:
        WalkExpr(*st.expr);
        return false;
      case Stmt::Kind::kIf: {
        WalkExpr(*st.expr);
        const std::vector<Scope> snapshot = scopes_;
        scopes_.emplace_back();
        const bool then_exits = WalkBlock(st.body);
        scopes_.pop_back();
        std::vector<Scope> after_then = std::move(scopes_);
        scopes_ = snapshot;
        scopes_.emplace_back();
        const bool else_exits = WalkBlock(st.else_body);
        scopes_.pop_back();
        // State that flows past the `if` comes only from branches that fall
        // through.
        if (then_exits && !else_exits) {
          // keep else state (already current)
        } else if (else_exits && !then_exits) {
          scopes_ = std::move(after_then);
        } else {
          MergeScopes(scopes_, after_then);
        }
        return then_exits && else_exits;
      }
      case Stmt::Kind::kWhile: {
        // The first condition evaluation sees exactly the entry state, so
        // analyzing it (and the first body iteration) against the entry
        // state reports precisely the errors iteration one would hit.
        WalkExpr(*st.expr);
        const std::vector<Scope> snapshot = scopes_;
        ++loop_depth_;
        scopes_.emplace_back();
        WalkBlock(st.body);
        scopes_.pop_back();
        --loop_depth_;
        // Zero iterations are possible: join body effects with entry state.
        std::vector<Scope> after_body = std::move(scopes_);
        scopes_ = snapshot;
        MergeScopes(scopes_, after_body);
        return false;
      }
      case Stmt::Kind::kNumericFor: {
        auto check_bound = [&](const Expr* e, const char* what) {
          if (e == nullptr) return;
          const SType t = WalkExpr(*e);
          if (!CouldBe(t, SType::kNumber)) {
            Emit("SA201", Severity::kError, st.line,
                 std::string("for ") + what + " must be a number, got " +
                     std::string(to_string(t)));
          }
        };
        check_bound(st.for_start.get(), "start");
        check_bound(st.for_stop.get(), "stop");
        check_bound(st.for_step.get(), "step");
        if (Find(st.name) != nullptr) {
          Emit("SA103", Severity::kWarning, st.line,
               "loop variable '" + st.name + "' shadows an outer variable");
        }
        const std::vector<Scope> snapshot = scopes_;
        ++loop_depth_;
        scopes_.emplace_back();
        scopes_.back()[st.name] = VarInfo{SType::kNumber, false};
        WalkBlock(st.body);
        scopes_.pop_back();
        --loop_depth_;
        std::vector<Scope> after_body = std::move(scopes_);
        scopes_ = snapshot;
        MergeScopes(scopes_, after_body);
        return false;
      }
      case Stmt::Kind::kFunction: {
        if (FindHostSignature(st.name) != nullptr ||
            IsExtraHostFn(st.name)) {
          Emit("SA106", Severity::kError, st.line,
               "cannot shadow host function '" + st.name + "'");
        }
        defined_so_far_.insert(st.name);
        return false;  // body checked separately in WalkFunction
      }
      case Stmt::Kind::kReturn:
        if (st.expr) WalkExpr(*st.expr);
        return true;
      case Stmt::Kind::kBreak:
        if (loop_depth_ == 0) {
          Emit("SA105", Severity::kError, st.line,
               "'break' outside of a loop silently ends the "
               "enclosing block");
        }
        return true;
    }
    return false;
  }

  void WalkFunction(const Stmt& fn) {
    in_function_ = true;
    scopes_.clear();
    scopes_.emplace_back();
    for (const std::string& g : global_candidates_)
      scopes_.front()[g] = VarInfo{SType::kAny, false};
    scopes_.emplace_back();
    for (const std::string& p : fn.params)
      scopes_.back()[p] = VarInfo{SType::kAny, false};
    loop_depth_ = 0;
    WalkBlock(fn.body);
    in_function_ = false;
  }

  // --- expressions --------------------------------------------------------

  SType WalkExpr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kNumber: return SType::kNumber;
      case Expr::Kind::kString: return SType::kString;
      case Expr::Kind::kBool: return SType::kBool;
      case Expr::Kind::kNil: return SType::kNil;
      case Expr::Kind::kName: {
        if (VarInfo* v = Find(e.text)) {
          if (v->maybe) {
            Emit("SA102", Severity::kWarning, e.line,
                 "'" + e.text + "' may be unassigned here");
          }
          return v->type;
        }
        if (in_function_) {
          // Globals are modeled flow-insensitively inside function bodies.
          if (global_candidates_.count(e.text) != 0) return SType::kAny;
        }
        if (assigned_anywhere_.count(e.text) != 0) {
          Emit("SA102", Severity::kWarning, e.line,
               "'" + e.text + "' is used before it is assigned");
          return SType::kAny;
        }
        if (functions_.count(e.text) != 0) {
          Emit("SA101", Severity::kError, e.line,
               "undefined name '" + e.text +
                   "' (functions are not values; call it instead)");
        } else {
          Emit("SA101", Severity::kError, e.line,
               "undefined name '" + e.text + "'");
        }
        return SType::kAny;
      }
      case Expr::Kind::kUnary: {
        const SType t = WalkExpr(*e.lhs);
        switch (e.un_op) {
          case UnOp::kNeg:
            if (!CouldBe(t, SType::kNumber)) {
              Emit("SA201", Severity::kError, e.line,
                   "cannot negate a " + std::string(to_string(t)));
            }
            return SType::kNumber;
          case UnOp::kNot:
            return SType::kBool;
          case UnOp::kLen:
            if (!CouldBe(t, SType::kList) && !CouldBe(t, SType::kString)) {
              Emit("SA201", Severity::kError, e.line,
                   "cannot take length of a " + std::string(to_string(t)));
            }
            return SType::kNumber;
        }
        return SType::kAny;
      }
      case Expr::Kind::kBinary: return WalkBinary(e);
      case Expr::Kind::kCall: return WalkCall(e);
      case Expr::Kind::kIndex: {
        const SType lt = WalkExpr(*e.lhs);
        if (!CouldBe(lt, SType::kList)) {
          Emit("SA201", Severity::kError, e.line,
               "cannot index a " + std::string(to_string(lt)));
        }
        const SType it = WalkExpr(*e.rhs);
        if (!CouldBe(it, SType::kNumber)) {
          Emit("SA201", Severity::kError, e.line,
               "list index must be a number, got " +
                   std::string(to_string(it)));
        }
        return SType::kAny;  // element type is unknown
      }
      case Expr::Kind::kListLiteral: {
        for (const ExprPtr& arg : e.args) WalkExpr(*arg);
        return SType::kList;
      }
    }
    return SType::kAny;
  }

  SType WalkBinary(const Expr& e) {
    if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
      // Lua semantics: the result is one of the operands.
      const SType a = WalkExpr(*e.lhs);
      const SType b = WalkExpr(*e.rhs);
      return JoinType(a, b);
    }
    const SType a = WalkExpr(*e.lhs);
    const SType b = WalkExpr(*e.rhs);
    auto type_names = [&] {
      return std::string(to_string(a)) + " and " + to_string(b);
    };
    switch (e.bin_op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
      case BinOp::kMod:
        if (!CouldBe(a, SType::kNumber) || !CouldBe(b, SType::kNumber)) {
          Emit("SA201", Severity::kError, e.line,
               "arithmetic on " + type_names());
        }
        return SType::kNumber;
      case BinOp::kConcat:
        if (a == SType::kList || b == SType::kList) {
          Emit("SA201", Severity::kError, e.line, "cannot concatenate lists");
        }
        return SType::kString;
      case BinOp::kEq:
      case BinOp::kNe:
        return SType::kBool;
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: {
        auto comparable = [](SType t) {
          return t == SType::kNumber || t == SType::kString || t == SType::kAny;
        };
        const bool definite_mismatch =
            !comparable(a) || !comparable(b) ||
            (a != SType::kAny && b != SType::kAny && a != b);
        if (definite_mismatch) {
          Emit("SA201", Severity::kError, e.line,
               "cannot compare " + type_names());
        }
        return SType::kBool;
      }
      case BinOp::kAnd:
      case BinOp::kOr:
        break;  // handled above
    }
    return SType::kAny;
  }

  static bool ArgCompatible(SType actual, ArgType want) {
    if (actual == SType::kAny) return true;
    switch (want) {
      case ArgType::kAny: return true;
      case ArgType::kNumber: return actual == SType::kNumber;
      case ArgType::kString: return actual == SType::kString;
      case ArgType::kList: return actual == SType::kList;
      case ArgType::kListOrString:
        return actual == SType::kList || actual == SType::kString;
    }
    return true;
  }

  static const char* ArgTypeName(ArgType t) {
    switch (t) {
      case ArgType::kNumber: return "number";
      case ArgType::kString: return "string";
      case ArgType::kList: return "list";
      case ArgType::kListOrString: return "list or string";
      case ArgType::kAny: return "any";
    }
    return "?";
  }

  SType WalkCall(const Expr& e) {
    std::vector<SType> arg_types;
    arg_types.reserve(e.args.size());
    for (const ExprPtr& arg : e.args) arg_types.push_back(WalkExpr(*arg));
    const int n = static_cast<int>(arg_types.size());

    if (const HostSignature* sig = FindHostSignature(e.text)) {
      if (n < sig->min_args || (sig->max_args >= 0 && n > sig->max_args)) {
        std::string expect =
            sig->max_args < 0
                ? "at least " + std::to_string(sig->min_args)
                : (sig->min_args == sig->max_args
                       ? std::to_string(sig->min_args)
                       : std::to_string(sig->min_args) + " to " +
                             std::to_string(sig->max_args));
        Emit("SA202", Severity::kError, e.line,
             "'" + std::string(sig->name) + "' expects " + expect +
                 " argument(s), got " + std::to_string(n));
      }
      for (int i = 0; i < n; ++i) {
        const ArgType want = i < 2 ? sig->args[i] : sig->rest;
        if (!ArgCompatible(arg_types[static_cast<std::size_t>(i)], want)) {
          Emit("SA202", Severity::kError, e.line,
               "argument " + std::to_string(i + 1) + " of '" +
                   std::string(sig->name) + "' must be " + ArgTypeName(want) +
                   ", got " +
                   to_string(arg_types[static_cast<std::size_t>(i)]));
        }
      }
      if (sig->sensor.has_value()) {
        required_.insert(*sig->sensor);
        if (options_.available_sensors.has_value()) {
          const auto& avail = *options_.available_sensors;
          if (std::find(avail.begin(), avail.end(), *sig->sensor) ==
              avail.end()) {
            Emit("SA302", Severity::kError, e.line,
                 "'" + std::string(sig->name) + "' needs sensor '" +
                     std::string(to_string(*sig->sensor)) +
                     "', which the target device does not provide");
          }
        }
      }
      return sig->ret;
    }

    if (IsExtraHostFn(e.text)) return SType::kAny;

    if (auto it = functions_.find(e.text); it != functions_.end()) {
      const int arity = fn_arity_[e.text];
      if (arity >= 0 && n != arity) {
        Emit("SA203", Severity::kError, e.line,
             "'" + e.text + "' expects " + std::to_string(arity) +
                 " args, got " + std::to_string(n));
      }
      if (!in_function_ && defined_so_far_.count(e.text) == 0) {
        Emit("SA107", Severity::kWarning, e.line,
             "'" + e.text + "' is called before its definition on line " +
                 std::to_string(it->second->line) + " has executed");
      }
      return SType::kAny;
    }

    Emit("SA301", Severity::kError, e.line,
         "function '" + e.text + "' is not in the allowed function whitelist");
    return SType::kAny;
  }

  const Program& program_;
  const AnalyzerOptions& options_;
  std::vector<Diagnostic>& out_;
  std::set<SensorKind>& required_;

  std::set<std::string> assigned_anywhere_;
  std::set<std::string> global_candidates_;
  std::map<std::string, const Stmt*> functions_;
  std::map<std::string, int> fn_arity_;
  std::set<std::string> defined_so_far_;

  std::vector<Scope> scopes_;
  bool in_function_ = false;
  int loop_depth_ = 0;
};

// ===========================================================================
// Pass 4: cost & termination.
//
// Interval-based constant folding drives static loop bounds, the only ones
// the analyzer derives (the IR passes bound no loop); the result is
// a worst-case count of interpreter ticks (mirroring the Tick() placement of
// the AST walker in tests/ast_oracle.cpp, which ir::Inst::ticks charges to
// the IR) and of physical acquisition samples, priced
// with sensors::AcquisitionEnergyMj. The state after a loop joins every way
// out of it, so a fact the body makes is never read as certain afterwards.
// ===========================================================================

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Interval {
  double lo = -kInf;
  double hi = kInf;
  [[nodiscard]] bool finite() const {
    return std::isfinite(lo) && std::isfinite(hi);
  }
};

// Abstract value: a numeric range, a truthiness verdict, a list-length
// range — whichever is statically known. A length fact holds when it was
// made; CostAnalyzer::LenNow adds the growth the walk has passed since
// (`len_grown`, `len_loops` record that point).
struct CVal {
  std::optional<Interval> num;
  std::optional<bool> truth;
  std::optional<Interval> len;
  double len_grown = 0;
  int len_loops = 0;
};

std::optional<Interval> IAdd(const std::optional<Interval>& a,
                             const std::optional<Interval>& b) {
  if (!a || !b || !a->finite() || !b->finite()) return std::nullopt;
  return Interval{a->lo + b->lo, a->hi + b->hi};
}
std::optional<Interval> ISub(const std::optional<Interval>& a,
                             const std::optional<Interval>& b) {
  if (!a || !b || !a->finite() || !b->finite()) return std::nullopt;
  return Interval{a->lo - b->hi, a->hi - b->lo};
}
std::optional<Interval> IMul(const std::optional<Interval>& a,
                             const std::optional<Interval>& b) {
  if (!a || !b || !a->finite() || !b->finite()) return std::nullopt;
  const double p1 = a->lo * b->lo, p2 = a->lo * b->hi;
  const double p3 = a->hi * b->lo, p4 = a->hi * b->hi;
  return Interval{std::min(std::min(p1, p2), std::min(p3, p4)),
                  std::max(std::max(p1, p2), std::max(p3, p4))};
}
Interval IHull(const Interval& a, const Interval& b) {
  return Interval{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

// Trips of a counted loop: a variable starting in `from` moves by `step`
// each trip, up (`up`) or down toward a limit in `to`, and the loop runs
// while it has not passed the limit (`inclusive`: equality still runs).
// Integer operands add exactly: ceil(span/stride) for a strict comparison,
// floor(span/stride) + 1 otherwise. Other operands may round each sum by
// half an ulp of the largest magnitude the variable reaches, so the bound
// divides by the stride less that, plus one trip for the rounding of the
// bound's own arithmetic. A step under one ulp may leave the variable
// where it is: no bound.
std::optional<double> CountedTrips(const Interval& from, const Interval& to,
                                   const Interval& step, bool up,
                                   bool inclusive) {
  if (up ? step.lo <= 0 : step.hi >= 0) return std::nullopt;
  const double span = up ? to.hi - from.lo : from.hi - to.lo;
  const double stride = up ? step.lo : -step.hi;
  const auto trips = [&](double by) {
    return std::max(0.0, inclusive ? std::floor(span / by) + 1
                                   : std::ceil(span / by));
  };
  bool integral = true;
  double magnitude = 0;
  for (double v : {from.lo, from.hi, to.lo, to.hi}) {
    integral = integral && std::floor(v) == v;
    magnitude = std::max(magnitude, std::abs(v));
  }
  integral = integral && std::floor(step.lo) == step.lo &&
             std::floor(step.hi) == step.hi;
  // The last trip carries the variable at most one step past the limit.
  magnitude += std::max(std::abs(step.lo), std::abs(step.hi));
  if (integral && magnitude <= 0x1p53) return trips(stride);
  const double ulp = std::nextafter(magnitude, kInf) - magnitude;
  if (stride < ulp) return std::nullopt;
  return trips(stride - ulp / 2) + 1;
}

// Worst-case resources for one execution of a fragment.
struct Cost {
  double steps = 0;
  double samples = 0;   // physical acquisition samples
  double energy = 0;    // millijoules
  bool bounded = true;
  int heavy_line = 0;        // acquisition site with the largest energy
  double heavy_energy = -1;
  int heavy_loop_line = 0;   // loop contributing the most steps
  double heavy_loop_steps = -1;

  void Add(const Cost& o) {
    steps += o.steps;
    samples += o.samples;
    energy += o.energy;
    bounded = bounded && o.bounded;
    if (o.heavy_energy > heavy_energy) {
      heavy_energy = o.heavy_energy;
      heavy_line = o.heavy_line;
    }
    if (o.heavy_loop_steps > heavy_loop_steps) {
      heavy_loop_steps = o.heavy_loop_steps;
      heavy_loop_line = o.heavy_loop_line;
    }
  }

  void Scale(double n, int loop_line) {
    steps *= n;
    samples *= n;
    energy *= n;
    heavy_energy *= n;
    heavy_loop_steps *= n;
    if (steps > heavy_loop_steps) {
      heavy_loop_steps = steps;
      heavy_loop_line = loop_line;
    }
  }

  static Cost Max(const Cost& a, const Cost& b) {
    Cost m;
    m.steps = std::max(a.steps, b.steps);
    m.samples = std::max(a.samples, b.samples);
    m.energy = std::max(a.energy, b.energy);
    m.bounded = a.bounded && b.bounded;
    const Cost& h = a.heavy_energy >= b.heavy_energy ? a : b;
    m.heavy_energy = h.heavy_energy;
    m.heavy_line = h.heavy_line;
    const Cost& hl = a.heavy_loop_steps >= b.heavy_loop_steps ? a : b;
    m.heavy_loop_steps = hl.heavy_loop_steps;
    m.heavy_loop_line = hl.heavy_loop_line;
    return m;
  }
};

class CostAnalyzer {
 public:
  CostAnalyzer(const Program& program, const AnalyzerOptions& options,
               std::vector<Diagnostic>& out)
      : program_(program), options_(options), out_(out) {}

  Cost Run() {
    CollectFunctions(program_.statements);
    env_.clear();
    env_.emplace_back();
    return CostOfBlock(program_.statements);
  }

 private:
  void Emit(std::string code, int line, std::string msg) {
    out_.push_back(
        Diagnostic{std::move(code), Severity::kError, line, std::move(msg)});
  }

  void CollectFunctions(const std::vector<StmtPtr>& body) {
    for (const StmtPtr& sp : body) {
      const Stmt& st = *sp;
      if (st.kind == Stmt::Kind::kFunction) {
        fns_[st.name] = &st;  // later definition wins, like the interpreter
        CollectFunctions(st.body);
      } else if (st.kind == Stmt::Kind::kIf) {
        CollectFunctions(st.body);
        CollectFunctions(st.else_body);
      } else if (st.kind == Stmt::Kind::kWhile ||
                 st.kind == Stmt::Kind::kNumericFor) {
        CollectFunctions(st.body);
      }
    }
  }

  // --- abstract environment ----------------------------------------------

  using CEnv = std::map<std::string, CVal>;

  CVal* FindVal(const std::string& name) {
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (auto v = it->find(name); v != it->end()) return &v->second;
    }
    return nullptr;
  }

  void AssignVal(const std::string& name, CVal v) {
    if (CVal* slot = FindVal(name)) {
      *slot = std::move(v);
    } else {
      env_.front()[name] = std::move(v);
    }
  }

  void JoinEnv(std::vector<CEnv>& a, const std::vector<CEnv>& b) const {
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      for (auto it = a[i].begin(); it != a[i].end();) {
        auto bv = b[i].find(it->first);
        if (bv == b[i].end()) {
          it = a[i].erase(it);
          continue;
        }
        CVal& av = it->second;
        const CVal& o = bv->second;
        av.num = (av.num && o.num) ? std::optional(IHull(*av.num, *o.num))
                                   : std::nullopt;
        const std::optional<Interval> alen = LenNow(av);
        const std::optional<Interval> olen = LenNow(o);
        av.len = (alen && olen) ? std::optional(IHull(*alen, *olen))
                                : std::nullopt;
        StampLen(av);
        av.truth = (av.truth && o.truth && *av.truth == *o.truth)
                       ? av.truth
                       : std::nullopt;
        ++it;
      }
    }
  }

  // --- list growth ----------------------------------------------------------
  //
  // Lists are references, so a push through any alias, element or callee
  // argument grows the list. Rather than follow references, the walk
  // counts growth: grown_ is the number of pushes and index stores passed,
  // scaled by the trip bounds of the loops around them, and a length fact
  // is read relative to its value when the fact was made.

  void StampLen(CVal& v) const {
    v.len_grown = grown_;
    v.len_loops = loops_entered_;
  }

  std::optional<Interval> LenNow(const CVal& v) const {
    // Facts made outside a list-growing loop body do not hold inside it:
    // the body runs many times but is walked once.
    if (!v.len || v.len_loops < len_barrier_) return std::nullopt;
    return Interval{v.len->lo, v.len->hi + (grown_ - v.len_grown)};
  }

  // Whether code may grow a list: a push, an index store, or a call to a
  // script function, which may do either.
  bool MayGrowLists(const Expr* e) const {
    if (e == nullptr) return false;
    if (e->kind == Expr::Kind::kCall &&
        (e->text == "push" || fns_.count(e->text) != 0))
      return true;
    return MayGrowLists(e->lhs.get()) || MayGrowLists(e->rhs.get()) ||
           std::any_of(e->args.begin(), e->args.end(),
                       [this](const ExprPtr& a) { return MayGrowLists(a.get()); });
  }
  bool MayGrowLists(const std::vector<StmtPtr>& body) const {
    return std::any_of(body.begin(), body.end(), [this](const StmtPtr& sp) {
      const Stmt& st = *sp;
      return st.target_index || MayGrowLists(st.expr.get()) ||
             MayGrowLists(st.for_start.get()) ||
             MayGrowLists(st.for_stop.get()) ||
             MayGrowLists(st.for_step.get()) ||
             (st.kind != Stmt::Kind::kFunction &&
              (MayGrowLists(st.body) || MayGrowLists(st.else_body)));
    });
  }

  // Around a loop body that may grow lists: hides the length facts made
  // before it, and afterwards charges the growth of every trip.
  struct LoopGrowth {
    double grown_before;
    int barrier_before;
  };
  LoopGrowth EnterLoop(const std::vector<StmtPtr>& body, const Expr* cond) {
    const LoopGrowth saved{grown_, len_barrier_};
    if (MayGrowLists(body) || MayGrowLists(cond))
      len_barrier_ = ++loops_entered_;
    return saved;
  }
  void LeaveLoop(const LoopGrowth& saved, std::optional<double> trips) {
    len_barrier_ = saved.barrier_before;
    const double per_trip = grown_ - saved.grown_before;
    if (per_trip <= 0) return;
    grown_ = trips ? std::max(grown_, saved.grown_before + per_trip * *trips)
                   : kInf;
  }

  // Names (re)assigned anywhere in a block — used to widen loop bodies.
  static void CollectAssigned(const std::vector<StmtPtr>& body,
                              std::set<std::string>& out) {
    for (const StmtPtr& sp : body) {
      const Stmt& st = *sp;
      switch (st.kind) {
        case Stmt::Kind::kLocal:
        case Stmt::Kind::kAssign:
          if (!st.target_index) out.insert(st.name);
          break;
        case Stmt::Kind::kNumericFor:
          out.insert(st.name);
          CollectAssigned(st.body, out);
          break;
        case Stmt::Kind::kWhile:
          CollectAssigned(st.body, out);
          break;
        case Stmt::Kind::kIf:
          CollectAssigned(st.body, out);
          CollectAssigned(st.else_body, out);
          break;
        default:
          break;
      }
    }
  }

  void Widen(const std::set<std::string>& names) {
    for (CEnv& scope : env_) {
      for (const std::string& n : names) {
        if (auto it = scope.find(n); it != scope.end()) it->second = CVal{};
      }
    }
  }

  // --- expressions --------------------------------------------------------

  struct EvalResult {
    CVal val;
    Cost cost;
  };

  EvalResult EvalC(const Expr& e) {
    EvalResult r;
    r.cost.steps = 1;  // the interpreter ticks once per evaluated node
    switch (e.kind) {
      case Expr::Kind::kNumber:
        r.val.num = Interval{e.number, e.number};
        r.val.truth = true;
        return r;
      case Expr::Kind::kString:
        r.val.truth = true;
        return r;
      case Expr::Kind::kBool:
        r.val.truth = e.boolean;
        return r;
      case Expr::Kind::kNil:
        r.val.truth = false;
        return r;
      case Expr::Kind::kName:
        if (const CVal* v = FindVal(e.text)) r.val = *v;
        return r;
      case Expr::Kind::kUnary: {
        EvalResult operand = EvalC(*e.lhs);
        r.cost.Add(operand.cost);
        switch (e.un_op) {
          case UnOp::kNeg:
            if (operand.val.num && operand.val.num->finite())
              r.val.num = Interval{-operand.val.num->hi, -operand.val.num->lo};
            break;
          case UnOp::kNot:
            if (operand.val.truth) r.val.truth = !*operand.val.truth;
            break;
          case UnOp::kLen:
            r.val.num = LenNow(operand.val);
            break;
        }
        return r;
      }
      case Expr::Kind::kBinary: {
        EvalResult a = EvalC(*e.lhs);
        EvalResult b = EvalC(*e.rhs);
        // and/or short-circuit; worst case evaluates both operands.
        r.cost.Add(a.cost);
        r.cost.Add(b.cost);
        switch (e.bin_op) {
          case BinOp::kAdd: r.val.num = IAdd(a.val.num, b.val.num); break;
          case BinOp::kSub: r.val.num = ISub(a.val.num, b.val.num); break;
          case BinOp::kMul: r.val.num = IMul(a.val.num, b.val.num); break;
          case BinOp::kLt:
          case BinOp::kLe:
          case BinOp::kGt:
          case BinOp::kGe:
            r.val.truth = FoldCompare(e.bin_op, a.val.num, b.val.num);
            break;
          case BinOp::kAnd:  // the left operand when it is falsy
            if (a.val.truth) r.val = *a.val.truth ? b.val : a.val;
            break;
          case BinOp::kOr:  // the left operand when it is truthy
            if (a.val.truth) r.val = *a.val.truth ? a.val : b.val;
            break;
          default:
            break;  // div/mod/concat/eq: value statically unknown
        }
        if (r.val.num) r.val.truth = true;  // numbers are always truthy
        return r;
      }
      case Expr::Kind::kCall:
        return EvalCall(e);
      case Expr::Kind::kIndex: {
        r.cost.Add(EvalC(*e.lhs).cost);
        r.cost.Add(EvalC(*e.rhs).cost);
        return r;
      }
      case Expr::Kind::kListLiteral: {
        for (const ExprPtr& arg : e.args) r.cost.Add(EvalC(*arg).cost);
        const double n = static_cast<double>(e.args.size());
        r.val.len = Interval{n, n};
        StampLen(r.val);
        r.val.truth = true;
        return r;
      }
    }
    return r;
  }

  static std::optional<bool> FoldCompare(BinOp op,
                                         const std::optional<Interval>& a,
                                         const std::optional<Interval>& b) {
    if (!a || !b) return std::nullopt;
    switch (op) {
      case BinOp::kLt:
        if (a->hi < b->lo) return true;
        if (a->lo >= b->hi) return false;
        break;
      case BinOp::kLe:
        if (a->hi <= b->lo) return true;
        if (a->lo > b->hi) return false;
        break;
      case BinOp::kGt:
        if (a->lo > b->hi) return true;
        if (a->hi <= b->lo) return false;
        break;
      case BinOp::kGe:
        if (a->lo >= b->hi) return true;
        if (a->hi < b->lo) return false;
        break;
      default:
        break;
    }
    return std::nullopt;
  }

  EvalResult EvalCall(const Expr& e) {
    EvalResult r;
    r.cost.steps = 1;
    std::vector<CVal> arg_vals;
    arg_vals.reserve(e.args.size());
    for (const ExprPtr& arg : e.args) {
      EvalResult ar = EvalC(*arg);
      r.cost.Add(ar.cost);
      arg_vals.push_back(std::move(ar.val));
    }

    const HostSignature* sig = FindHostSignature(e.text);
    if (sig != nullptr && sig->sensor.has_value()) {
      // Acquisition: samples = first argument when statically known, the
      // configured per-window default otherwise.
      double samples = static_cast<double>(options_.default_samples_per_window);
      if (!e.args.empty()) {
        if (arg_vals[0].num && arg_vals[0].num->finite()) {
          samples = std::max(1.0, std::floor(arg_vals[0].num->hi));
        } else {
          out_.push_back(Diagnostic{
              "SA405", Severity::kWarning, e.line,
              "sample count of '" + e.text +
                  "' is not statically derivable; cost estimate assumes " +
                  std::to_string(options_.default_samples_per_window)});
        }
      }
      const double mj = samples * sensors::AcquisitionEnergyMj(*sig->sensor);
      r.cost.samples += samples;
      r.cost.energy += mj;
      if (mj > r.cost.heavy_energy) {
        r.cost.heavy_energy = mj;
        r.cost.heavy_line = e.line;
      }
      // Denied or failed acquisitions legitimately return an empty list.
      r.val.len = Interval{0, samples};
      StampLen(r.val);
      r.val.truth = true;
      return r;
    }
    if (sig != nullptr) {
      if (sig->name == "len" && arg_vals.size() == 1 &&
          LenNow(arg_vals[0])) {
        r.val.num = LenNow(arg_vals[0]);
        r.val.truth = true;
      } else if (sig->name == "push") {
        // push(list, v) appends in place: the list grows by one (the upper
        // bound of every list through grown_, the named one's lower here).
        grown_ += 1;
        if (!e.args.empty() && e.args[0]->kind == Expr::Kind::kName) {
          if (CVal* lv = FindVal(e.args[0]->text);
              lv != nullptr && LenNow(*lv)) {
            lv->len->lo += 1;
            r.val.num = LenNow(*lv);
          }
        }
      }
      return r;
    }
    if (auto it = fns_.find(e.text); it != fns_.end()) {
      r.cost.Add(CostOfFunction(e.text));
      return r;
    }
    return r;  // unknown function: SA301 already reported by the scope pass
  }

  Cost CostOfFunction(const std::string& name) {
    if (auto memo = fn_memo_.find(name); memo != fn_memo_.end()) {
      grown_ += fn_grown_[name];  // walked once; every call grows as much
      return memo->second;
    }
    if (fn_stack_.count(name) != 0) {
      if (recursion_reported_.insert(name).second) {
        Emit("SA402", fns_[name]->line,
             "function '" + name +
                 "' is recursive; its cost cannot be bounded");
      }
      Cost unbounded;
      unbounded.bounded = false;
      return unbounded;
    }
    fn_stack_.insert(name);
    // Function bodies run with unknown parameters and globals, and a
    // `break` in one never leaves the caller's loop.
    std::vector<CEnv> saved = std::move(env_);
    env_.clear();
    env_.emplace_back();
    env_.emplace_back();
    auto saved_breaks = std::exchange(break_envs_, {});
    const double grown_before = grown_;
    Cost c = CostOfBlock(fns_[name]->body);
    env_ = std::move(saved);
    break_envs_ = std::move(saved_breaks);
    fn_stack_.erase(name);
    fn_memo_[name] = c;
    fn_grown_[name] = grown_ - grown_before;
    return c;
  }

  // --- statements ---------------------------------------------------------

  Cost CostOfBlock(const std::vector<StmtPtr>& body) {
    Cost c;
    for (const StmtPtr& st : body) c.Add(CostOfStmt(*st));
    return c;
  }

  Cost CostOfStmt(const Stmt& st) {
    Cost c;
    c.steps = 1;  // RunStmt ticks once per statement
    switch (st.kind) {
      case Stmt::Kind::kLocal: {
        EvalResult v = EvalC(*st.expr);
        c.Add(v.cost);
        env_.back()[st.name] = std::move(v.val);
        return c;
      }
      case Stmt::Kind::kAssign: {
        EvalResult v = EvalC(*st.expr);
        c.Add(v.cost);
        if (st.target_index) {
          c.Add(EvalC(*st.target_index->lhs).cost);
          c.Add(EvalC(*st.target_index->rhs).cost);
          // list[n+1] = v appends: worst case a list grows by one.
          grown_ += 1;
          return c;
        }
        AssignVal(st.name, std::move(v.val));
        return c;
      }
      case Stmt::Kind::kExpr:
        c.Add(EvalC(*st.expr).cost);
        return c;
      case Stmt::Kind::kIf: {
        EvalResult cond = EvalC(*st.expr);
        c.Add(cond.cost);
        const std::vector<CEnv> snapshot = env_;
        env_.emplace_back();
        Cost then_c = CostOfBlock(st.body);
        env_.pop_back();
        std::vector<CEnv> after_then = std::move(env_);
        env_ = snapshot;
        env_.emplace_back();
        Cost else_c = CostOfBlock(st.else_body);
        env_.pop_back();
        if (cond.val.truth.has_value()) {
          // Statically decided branch: only that arm can run.
          if (*cond.val.truth) {
            env_ = std::move(after_then);
            c.Add(then_c);
          } else {
            c.Add(else_c);
          }
        } else {
          JoinEnv(env_, after_then);
          c.Add(Cost::Max(then_c, else_c));
        }
        return c;
      }
      case Stmt::Kind::kWhile: {
        const LoopGrowth growth = EnterLoop(st.body, st.expr.get());
        EvalResult cond = EvalC(*st.expr);
        const std::optional<double> bound = WhileBound(st, cond.val);
        const std::vector<CEnv> entry = env_;
        Cost body_c = CostOfLoopBody(st, nullptr);
        // The condition runs once more than the body.
        LeaveLoop(growth, bound ? std::optional(*bound + 1) : std::nullopt);
        JoinLoopExits(entry);
        if (!bound.has_value()) {
          Emit("SA401", st.line,
               "cannot derive a static bound for this while loop");
          c.bounded = false;
          c.Add(body_c);  // keep nested diagnostics / sensors counted once
          c.Add(cond.cost);
          return c;
        }
        const double n = *bound;
        body_c.Scale(n, st.line);
        Cost cond_c = cond.cost;
        cond_c.Scale(n + 1, st.line);
        c.Add(body_c);
        c.Add(cond_c);
        c.steps += n + 1;  // loop head ticks once per check, incl. the last
        return c;
      }
      case Stmt::Kind::kNumericFor: {
        EvalResult start = EvalC(*st.for_start);
        EvalResult stop = EvalC(*st.for_stop);
        c.Add(start.cost);
        c.Add(stop.cost);
        std::optional<Interval> step = Interval{1, 1};
        if (st.for_step) {
          EvalResult sv = EvalC(*st.for_step);
          c.Add(sv.cost);
          step = sv.val.num;
        }
        std::optional<double> bound;
        std::optional<Interval> var_range;
        if (start.val.num && stop.val.num && step && step->finite() &&
            start.val.num->finite() && stop.val.num->finite()) {
          const Interval& s0 = *start.val.num;
          const Interval& s1 = *stop.val.num;
          bound = CountedTrips(s0, s1, *step, /*up=*/step->lo > 0,
                               /*inclusive=*/true);
          var_range = IHull(s0, s1);
        }
        const std::vector<CEnv> entry = env_;
        const LoopGrowth growth = EnterLoop(st.body, nullptr);
        CVal loop_var;
        loop_var.num = var_range;
        loop_var.truth = true;
        Cost body_c = CostOfLoopBody(st, &loop_var);
        LeaveLoop(growth, bound);
        JoinLoopExits(entry);
        if (!bound.has_value()) {
          Emit("SA401", st.line,
               "cannot derive a static bound for this for loop "
               "(bounds or step are not statically known)");
          c.bounded = false;
          c.Add(body_c);
          return c;
        }
        body_c.Scale(*bound, st.line);
        c.Add(body_c);
        c.steps += *bound;  // per-iteration tick in the loop head
        return c;
      }
      case Stmt::Kind::kFunction:
        return c;  // body is costed at call sites
      case Stmt::Kind::kReturn:
        if (st.expr) c.Add(EvalC(*st.expr).cost);
        return c;
      case Stmt::Kind::kBreak:
        if (!break_envs_.empty()) break_envs_.back().push_back(env_);
        return c;
    }
    return c;
  }

  // One walk of a loop body from the widened head state: every name the
  // body assigns is unknown, since the walk stands for any trip. The
  // numeric-for variable, when given, is bound in the body's scope. Opens
  // the loop's list of break states, which JoinLoopExits closes.
  Cost CostOfLoopBody(const Stmt& loop, const CVal* loop_var) {
    std::set<std::string> assigned;
    CollectAssigned(loop.body, assigned);
    Widen(assigned);
    break_envs_.emplace_back();
    env_.emplace_back();
    if (loop_var != nullptr) env_.back()[loop.name] = *loop_var;
    Cost c = CostOfBlock(loop.body);
    env_.pop_back();
    return c;
  }

  // The state after a loop joins every way out of it: the body's last
  // trip, no trip at all (`entry`), and each `break`. Runs after
  // LeaveLoop, so length facts made before the loop are read through the
  // restored barrier and the scaled growth count.
  void JoinLoopExits(const std::vector<CEnv>& entry) {
    JoinEnv(env_, entry);
    for (const std::vector<CEnv>& at_break : break_envs_.back())
      JoinEnv(env_, at_break);
    break_envs_.pop_back();
  }

  // --- while-loop bound derivation ----------------------------------------

  static bool AlwaysExits(const std::vector<StmtPtr>& body) {
    for (const StmtPtr& sp : body) {
      const Stmt& st = *sp;
      if (st.kind == Stmt::Kind::kBreak || st.kind == Stmt::Kind::kReturn)
        return true;
      if (st.kind == Stmt::Kind::kIf && AlwaysExits(st.body) &&
          !st.else_body.empty() && AlwaysExits(st.else_body))
        return true;
    }
    return false;
  }

  // Counts assignments to `name` in a block (any nesting) and remembers the
  // last one seen at the top level of the block.
  static void FindAssignments(const std::vector<StmtPtr>& body,
                              const std::string& name, bool top_level,
                              int& count, const Stmt** top_level_assign) {
    for (const StmtPtr& sp : body) {
      const Stmt& st = *sp;
      switch (st.kind) {
        case Stmt::Kind::kLocal:
        case Stmt::Kind::kAssign:
          if (!st.target_index && st.name == name) {
            ++count;
            if (top_level && st.kind == Stmt::Kind::kAssign)
              *top_level_assign = &st;
          }
          break;
        case Stmt::Kind::kNumericFor:
          if (st.name == name) ++count;
          FindAssignments(st.body, name, false, count, top_level_assign);
          break;
        case Stmt::Kind::kWhile:
          FindAssignments(st.body, name, false, count, top_level_assign);
          break;
        case Stmt::Kind::kIf:
          FindAssignments(st.body, name, false, count, top_level_assign);
          FindAssignments(st.else_body, name, false, count, top_level_assign);
          break;
        default:
          break;
      }
    }
  }

  // `v = v + k` / `v = k + v` / `v = v - k` with constant k. Returns the
  // signed per-iteration delta interval.
  std::optional<Interval> StepOf(const Stmt& assign, const std::string& v) {
    if (assign.expr == nullptr ||
        assign.expr->kind != Expr::Kind::kBinary)
      return std::nullopt;
    const Expr& e = *assign.expr;
    auto is_v = [&](const ExprPtr& p) {
      return p->kind == Expr::Kind::kName && p->text == v;
    };
    auto fold = [&](const ExprPtr& p) -> std::optional<Interval> {
      // Evaluated against the widened env: loop-variant names are unknown,
      // so a non-invariant step folds to nullopt and the pattern fails.
      EvalResult r = EvalC(*p);
      if (r.val.num && r.val.num->finite()) return r.val.num;
      return std::nullopt;
    };
    if (e.bin_op == BinOp::kAdd) {
      if (is_v(e.lhs)) return fold(e.rhs);
      if (is_v(e.rhs)) return fold(e.lhs);
    } else if (e.bin_op == BinOp::kSub && is_v(e.lhs)) {
      std::optional<Interval> k = fold(e.rhs);
      if (k) return Interval{-k->hi, -k->lo};
    }
    return std::nullopt;
  }

  // Static iteration bound for `while cond do body end`, or nullopt.
  std::optional<double> WhileBound(const Stmt& st, const CVal& cond_val) {
    if (cond_val.truth.has_value() && !*cond_val.truth) return 0.0;
    if (AlwaysExits(st.body)) return 1.0;

    // Induction pattern: cond compares a variable against a loop-invariant
    // limit and the body moves the variable toward it by a constant step.
    if (st.expr == nullptr || st.expr->kind != Expr::Kind::kBinary)
      return std::nullopt;
    const Expr& cond = *st.expr;
    const Expr* var_side = nullptr;
    const Expr* limit_side = nullptr;
    bool var_must_grow = false;  // variable counts up toward the limit
    switch (cond.bin_op) {
      case BinOp::kLt:
      case BinOp::kLe:
        var_side = cond.lhs.get();
        limit_side = cond.rhs.get();
        var_must_grow = true;
        break;
      case BinOp::kGt:
      case BinOp::kGe:
        var_side = cond.lhs.get();
        limit_side = cond.rhs.get();
        var_must_grow = false;
        break;
      default:
        return std::nullopt;
    }
    if (var_side->kind != Expr::Kind::kName) {
      // Flipped form: `limit > v` counts up, `limit < v` counts down.
      if (limit_side->kind != Expr::Kind::kName) return std::nullopt;
      std::swap(var_side, limit_side);
      var_must_grow = !var_must_grow;
    }
    if (var_side->kind != Expr::Kind::kName) return std::nullopt;
    const std::string& v = var_side->text;

    // Entry value of the variable, before any widening.
    const CVal* entry = FindVal(v);
    if (entry == nullptr || !entry->num || !entry->num->finite())
      return std::nullopt;
    const Interval entry_range = *entry->num;

    // The limit and step must be loop-invariant: fold them in a copy of the
    // environment with every body-assigned name forgotten.
    std::set<std::string> assigned;
    CollectAssigned(st.body, assigned);
    const std::vector<CEnv> saved = env_;
    Widen(assigned);
    std::optional<Interval> limit;
    {
      EvalResult lr = EvalC(*limit_side);
      if (lr.val.num && lr.val.num->finite()) limit = lr.val.num;
    }
    std::optional<Interval> step;
    int assign_count = 0;
    const Stmt* increment = nullptr;
    FindAssignments(st.body, v, /*top_level=*/true, assign_count, &increment);
    if (assign_count == 1 && increment != nullptr)
      step = StepOf(*increment, v);
    env_ = saved;

    if (!limit || !step) return std::nullopt;
    const bool strict = cond.bin_op == BinOp::kLt || cond.bin_op == BinOp::kGt;
    return CountedTrips(entry_range, *limit, *step, var_must_grow, !strict);
  }

  const Program& program_;
  const AnalyzerOptions& options_;
  std::vector<Diagnostic>& out_;

  std::vector<CEnv> env_;
  // Per enclosing loop, innermost last: the state at each `break` in it.
  std::vector<std::vector<std::vector<CEnv>>> break_envs_;
  std::map<std::string, const Stmt*> fns_;
  std::map<std::string, Cost> fn_memo_;
  std::map<std::string, double> fn_grown_;
  std::set<std::string> fn_stack_;
  double grown_ = 0;
  int loops_entered_ = 0;  // list-growing loop bodies entered so far
  int len_barrier_ = 0;    // facts stamped before this loop count are hidden
  std::set<std::string> recursion_reported_;
};

int FirstStatementLine(const Program& program) {
  return program.statements.empty() ? 1 : program.statements.front()->line;
}

}  // namespace

AnalysisReport Analyze(const Program& program, const AnalyzerOptions& options,
                       ir::Module* optimized) {
  AnalysisReport report;
  std::set<SensorKind> required;
  ScopeTypeChecker scopes(program, options, report.diagnostics, required);
  scopes.Run();

  // Flow-sensitive layer: lower to the dataflow IR, optimize, and collect
  // SA5xx diagnostics and the information-flow manifest from the
  // optimized module.
  ir::Module mod = ir::Lower(program);
  IrAnalysis ir_facts = AnalyzeModule(mod);
  report.diagnostics.insert(report.diagnostics.end(),
                            ir_facts.diagnostics.begin(),
                            ir_facts.diagnostics.end());
  report.flow = std::move(ir_facts.flow);
  if (optimized != nullptr) *optimized = std::move(mod);

  CostAnalyzer coster(program, options, report.diagnostics);
  const Cost cost = coster.Run();

  report.manifest.required_sensors.assign(required.begin(), required.end());
  report.manifest.cost_bounded = cost.bounded;
  if (cost.bounded) {
    report.manifest.worst_case_steps = cost.steps;
    report.manifest.worst_case_acquisitions = cost.samples;
    report.manifest.worst_case_energy_mj = cost.energy;
    if (options.energy_budget_mj > 0 &&
        cost.energy > options.energy_budget_mj) {
      report.diagnostics.push_back(Diagnostic{
          "SA403", Severity::kError,
          cost.heavy_line > 0 ? cost.heavy_line : FirstStatementLine(program),
          "worst-case energy estimate " + std::to_string(cost.energy) +
              " mJ/run exceeds the budget of " +
              std::to_string(options.energy_budget_mj) + " mJ/run"});
    }
    if (options.max_steps > 0 && cost.steps > options.max_steps) {
      report.diagnostics.push_back(Diagnostic{
          "SA404", Severity::kError,
          cost.heavy_loop_line > 0 ? cost.heavy_loop_line
                                   : FirstStatementLine(program),
          "worst-case step estimate " + std::to_string(cost.steps) +
              " exceeds the interpreter budget of " +
              std::to_string(options.max_steps)});
    }
  }
  SortAndDedupe(report.diagnostics);
  return report;
}

AnalysisReport AnalyzeSource(std::string_view source,
                             const AnalyzerOptions& options,
                             ir::Module* optimized) {
  Result<Program> program = Parse(source);
  if (!program.ok()) {
    AnalysisReport report;
    report.diagnostics.push_back(FromError(program.error()));
    report.manifest.cost_bounded = false;
    return report;
  }
  return Analyze(program.value(), options, optimized);
}

}  // namespace sor::script::analysis
