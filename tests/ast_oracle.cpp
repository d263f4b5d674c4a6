#include "ast_oracle.hpp"

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "script/parser.hpp"

namespace sor::script::oracle {
namespace {

// Control-flow signal raised by break/return while executing a block.
enum class Flow { kNormal, kBreak, kReturn };

struct Scope {
  std::map<std::string, Value> vars;
};

class AstWalker {
 public:
  AstWalker(const HostRegistry& host, const InterpreterOptions& opts)
      : host_(host), opts_(opts) {}

  Result<ExecutionResult> Execute(const Program& program) {
    scopes_.clear();
    scopes_.emplace_back();  // global scope
    functions_.clear();
    result_ = ExecutionResult{};

    Flow flow = Flow::kNormal;
    Value ret;
    if (Status s = RunBlock(program.statements, flow, ret); !s.ok())
      return s.error();
    result_.return_value = std::move(ret);
    result_.steps = steps_;
    return std::move(result_);
  }

 private:
  Status Tick(int line) {
    if (++steps_ > opts_.max_steps) {
      return Status(Error{Errc::kScriptError,
                          "instruction budget exhausted at line " +
                              std::to_string(line),
                          line});
    }
    return Status::Ok();
  }

  // Line in the message and in the structured field — same contract as the
  // lexer/parser error paths.
  static Error RuntimeError(int line, const std::string& msg) {
    return Error{Errc::kScriptError,
                 "runtime error at line " + std::to_string(line) + ": " + msg,
                 line};
  }

  // --- variable lookup ---------------------------------------------------

  Value* FindVar(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (auto v = it->vars.find(name); v != it->vars.end()) return &v->second;
    }
    return nullptr;
  }

  // --- statements ----------------------------------------------------------

  Status RunBlock(const std::vector<StmtPtr>& body, Flow& flow, Value& ret) {
    for (const StmtPtr& stmt : body) {
      if (Status s = RunStmt(*stmt, flow, ret); !s.ok()) return s;
      if (flow != Flow::kNormal) return Status::Ok();
    }
    return Status::Ok();
  }

  Status RunStmt(const Stmt& st, Flow& flow, Value& ret) {
    if (Status s = Tick(st.line); !s.ok()) return s;
    switch (st.kind) {
      case Stmt::Kind::kLocal: {
        Result<Value> v = Eval(*st.expr);
        if (!v.ok()) return v.error();
        scopes_.back().vars[st.name] = std::move(v).value();
        return Status::Ok();
      }
      case Stmt::Kind::kAssign: {
        Result<Value> v = Eval(*st.expr);
        if (!v.ok()) return v.error();
        if (st.target_index) {
          // list[i] = v
          Result<Value> listv = Eval(*st.target_index->lhs);
          if (!listv.ok()) return listv.error();
          if (!listv.value().is_list())
            return RuntimeError(st.line, "cannot index a " +
                                             std::string(
                                                 listv.value().TypeName()));
          Result<Value> idxv = Eval(*st.target_index->rhs);
          if (!idxv.ok()) return idxv.error();
          if (!idxv.value().is_number())
            return RuntimeError(st.line, "list index must be a number");
          List& list = *listv.value().as_list();
          const auto idx = static_cast<long long>(idxv.value().as_number());
          if (idx < 1 || idx > static_cast<long long>(list.size()) + 1)
            return RuntimeError(st.line,
                                "list index " + std::to_string(idx) +
                                    " out of range (size " +
                                    std::to_string(list.size()) + ")");
          if (WouldCycle(list, v.value()))
            return RuntimeError(st.line, kListCycleError);
          if (idx == static_cast<long long>(list.size()) + 1) {
            list.push_back(std::move(v).value());  // Lua-style append
          } else {
            list[static_cast<std::size_t>(idx - 1)] = std::move(v).value();
          }
          return Status::Ok();
        }
        if (Value* slot = FindVar(st.name)) {
          *slot = std::move(v).value();
        } else {
          // Assignment to an undeclared name creates a global (Lua-like).
          scopes_.front().vars[st.name] = std::move(v).value();
        }
        return Status::Ok();
      }
      case Stmt::Kind::kExpr: {
        Result<Value> v = Eval(*st.expr);
        if (!v.ok()) return v.error();
        return Status::Ok();
      }
      case Stmt::Kind::kIf: {
        Result<Value> cond = Eval(*st.expr);
        if (!cond.ok()) return cond.error();
        scopes_.emplace_back();
        Status s = cond.value().truthy() ? RunBlock(st.body, flow, ret)
                                         : RunBlock(st.else_body, flow, ret);
        scopes_.pop_back();
        return s;
      }
      case Stmt::Kind::kWhile: {
        while (true) {
          if (Status s = Tick(st.line); !s.ok()) return s;
          Result<Value> cond = Eval(*st.expr);
          if (!cond.ok()) return cond.error();
          if (!cond.value().truthy()) break;
          scopes_.emplace_back();
          Status s = RunBlock(st.body, flow, ret);
          scopes_.pop_back();
          if (!s.ok()) return s;
          if (flow == Flow::kBreak) {
            flow = Flow::kNormal;
            break;
          }
          if (flow == Flow::kReturn) return Status::Ok();
        }
        return Status::Ok();
      }
      case Stmt::Kind::kNumericFor: {
        Result<Value> start = Eval(*st.for_start);
        if (!start.ok()) return start.error();
        Result<Value> stop = Eval(*st.for_stop);
        if (!stop.ok()) return stop.error();
        double step = 1.0;
        if (st.for_step) {
          Result<Value> sv = Eval(*st.for_step);
          if (!sv.ok()) return sv.error();
          if (!sv.value().is_number())
            return RuntimeError(st.line, "for step must be a number");
          step = sv.value().as_number();
        }
        if (!start.value().is_number() || !stop.value().is_number())
          return RuntimeError(st.line, "for bounds must be numbers");
        if (step == 0.0) return RuntimeError(st.line, "for step is zero");
        const double stop_v = stop.value().as_number();
        for (double i = start.value().as_number();
             step > 0 ? i <= stop_v : i >= stop_v; i += step) {
          if (Status s = Tick(st.line); !s.ok()) return s;
          scopes_.emplace_back();
          scopes_.back().vars[st.name] = Value(i);
          Status s = RunBlock(st.body, flow, ret);
          scopes_.pop_back();
          if (!s.ok()) return s;
          if (flow == Flow::kBreak) {
            flow = Flow::kNormal;
            break;
          }
          if (flow == Flow::kReturn) return Status::Ok();
        }
        return Status::Ok();
      }
      case Stmt::Kind::kFunction: {
        if (host_.Find(st.name) != nullptr) {
          return Status(Error{Errc::kScriptError,
                              "line " + std::to_string(st.line) +
                                  ": cannot shadow host function '" +
                                  st.name + "'",
                              st.line});
        }
        functions_[st.name] = &st;
        return Status::Ok();
      }
      case Stmt::Kind::kReturn: {
        if (st.expr) {
          Result<Value> v = Eval(*st.expr);
          if (!v.ok()) return v.error();
          ret = std::move(v).value();
        } else {
          ret = Value();
        }
        flow = Flow::kReturn;
        return Status::Ok();
      }
      case Stmt::Kind::kBreak:
        flow = Flow::kBreak;
        return Status::Ok();
    }
    return Status(Errc::kInternal, "unknown statement kind");
  }

  // --- expressions -----------------------------------------------------

  Result<Value> Eval(const Expr& e) {
    if (Status s = Tick(e.line); !s.ok()) return s.error();
    switch (e.kind) {
      case Expr::Kind::kNumber: return Value(e.number);
      case Expr::Kind::kString: return Value(e.text);
      case Expr::Kind::kBool: return Value(e.boolean);
      case Expr::Kind::kNil: return Value();
      case Expr::Kind::kName: {
        if (Value* v = FindVar(e.text)) return *v;
        return RuntimeError(e.line, "undefined variable '" + e.text + "'");
      }
      case Expr::Kind::kUnary: return EvalUnary(e);
      case Expr::Kind::kBinary: return EvalBinary(e);
      case Expr::Kind::kCall: return EvalCall(e);
      case Expr::Kind::kIndex: {
        Result<Value> list = Eval(*e.lhs);
        if (!list.ok()) return list;
        if (!list.value().is_list())
          return RuntimeError(
              e.line,
              "cannot index a " + std::string(list.value().TypeName()));
        Result<Value> idx = Eval(*e.rhs);
        if (!idx.ok()) return idx;
        if (!idx.value().is_number())
          return RuntimeError(e.line, "list index must be a number");
        const List& l = *list.value().as_list();
        const auto i = static_cast<long long>(idx.value().as_number());
        if (i < 1 || i > static_cast<long long>(l.size()))
          return RuntimeError(e.line, "list index " + std::to_string(i) +
                                          " out of range (size " +
                                          std::to_string(l.size()) + ")");
        return l[static_cast<std::size_t>(i - 1)];
      }
      case Expr::Kind::kListLiteral: {
        List elems;
        elems.reserve(e.args.size());
        for (const ExprPtr& arg : e.args) {
          Result<Value> v = Eval(*arg);
          if (!v.ok()) return v;
          elems.push_back(std::move(v).value());
        }
        return Value::MakeList(std::move(elems));
      }
    }
    return Error{Errc::kInternal, "unknown expression kind"};
  }

  Result<Value> EvalUnary(const Expr& e) {
    Result<Value> v = Eval(*e.lhs);
    if (!v.ok()) return v;
    switch (e.un_op) {
      case UnOp::kNeg:
        if (!v.value().is_number())
          return RuntimeError(e.line, "cannot negate a " +
                                          std::string(v.value().TypeName()));
        return Value(-v.value().as_number());
      case UnOp::kNot:
        return Value(!v.value().truthy());
      case UnOp::kLen:
        if (v.value().is_list())
          return Value(static_cast<double>(v.value().as_list()->size()));
        if (v.value().is_string())
          return Value(static_cast<double>(v.value().as_string().size()));
        return RuntimeError(e.line, "cannot take length of a " +
                                        std::string(v.value().TypeName()));
    }
    return Error{Errc::kInternal, "unknown unary op"};
  }

  Result<Value> EvalBinary(const Expr& e) {
    // Short-circuit and/or evaluate the rhs lazily (Lua semantics: the
    // result is one of the operands, not coerced to boolean).
    if (e.bin_op == BinOp::kAnd) {
      Result<Value> lhs = Eval(*e.lhs);
      if (!lhs.ok()) return lhs;
      if (!lhs.value().truthy()) return lhs;
      return Eval(*e.rhs);
    }
    if (e.bin_op == BinOp::kOr) {
      Result<Value> lhs = Eval(*e.lhs);
      if (!lhs.ok()) return lhs;
      if (lhs.value().truthy()) return lhs;
      return Eval(*e.rhs);
    }

    Result<Value> lhs = Eval(*e.lhs);
    if (!lhs.ok()) return lhs;
    Result<Value> rhs = Eval(*e.rhs);
    if (!rhs.ok()) return rhs;
    const Value& a = lhs.value();
    const Value& b = rhs.value();

    auto arith = [&](auto f) -> Result<Value> {
      if (!a.is_number() || !b.is_number())
        return RuntimeError(e.line, std::string("arithmetic on ") +
                                        a.TypeName() + " and " + b.TypeName());
      return Value(f(a.as_number(), b.as_number()));
    };
    auto compare = [&](auto f) -> Result<Value> {
      if (a.is_number() && b.is_number())
        return Value(f(a.as_number(), b.as_number()));
      if (a.is_string() && b.is_string())
        return Value(f(a.as_string().compare(b.as_string()), 0));
      return RuntimeError(e.line, std::string("cannot compare ") +
                                      a.TypeName() + " and " + b.TypeName());
    };

    switch (e.bin_op) {
      case BinOp::kAdd: return arith([](double x, double y) { return x + y; });
      case BinOp::kSub: return arith([](double x, double y) { return x - y; });
      case BinOp::kMul: return arith([](double x, double y) { return x * y; });
      case BinOp::kDiv:
        return arith([](double x, double y) { return x / y; });
      case BinOp::kMod:
        return arith([](double x, double y) { return std::fmod(x, y); });
      case BinOp::kConcat: {
        auto str = [](const Value& v) { return v.ToDisplayString(); };
        if (a.is_list() || b.is_list())
          return RuntimeError(e.line, "cannot concatenate lists");
        return Value(str(a) + str(b));
      }
      case BinOp::kEq: return Value(a.Equals(b));
      case BinOp::kNe: return Value(!a.Equals(b));
      case BinOp::kLt:
        return compare([](auto x, auto y) { return x < y; });
      case BinOp::kLe:
        return compare([](auto x, auto y) { return x <= y; });
      case BinOp::kGt:
        return compare([](auto x, auto y) { return x > y; });
      case BinOp::kGe:
        return compare([](auto x, auto y) { return x >= y; });
      case BinOp::kAnd:
      case BinOp::kOr:
        break;  // handled above
    }
    return Error{Errc::kInternal, "unknown binary op"};
  }

  Result<Value> EvalCall(const Expr& e) {
    std::vector<Value> args;
    args.reserve(e.args.size());
    for (const ExprPtr& arg : e.args) {
      Result<Value> v = Eval(*arg);
      if (!v.ok()) return v;
      args.push_back(std::move(v).value());
    }

    // print is interpreter-internal so output lands in ExecutionResult.
    if (e.text == "print") {
      std::string line;
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) line += "\t";
        line += args[i].ToDisplayString();
      }
      result_.output += line;
      result_.output += '\n';
      return Value();
    }

    // Script-defined functions take precedence over nothing — host
    // functions cannot be shadowed (enforced at definition time).
    if (auto it = functions_.find(e.text); it != functions_.end()) {
      const Stmt& fn = *it->second;
      if (args.size() != fn.params.size())
        return RuntimeError(e.line, "'" + e.text + "' expects " +
                                        std::to_string(fn.params.size()) +
                                        " args, got " +
                                        std::to_string(args.size()));
      if (++call_depth_ > opts_.max_call_depth) {
        --call_depth_;
        return RuntimeError(e.line, "call depth limit exceeded");
      }
      // Function scope: globals visible, caller locals are NOT (preserve
      // the scope count and restore after the call).
      std::vector<Scope> saved(std::make_move_iterator(scopes_.begin() + 1),
                               std::make_move_iterator(scopes_.end()));
      scopes_.resize(1);
      scopes_.emplace_back();
      for (std::size_t i = 0; i < args.size(); ++i)
        scopes_.back().vars[fn.params[i]] = std::move(args[i]);

      Flow flow = Flow::kNormal;
      Value ret;
      Status s = RunBlock(fn.body, flow, ret);

      scopes_.resize(1);
      for (Scope& sc : saved) scopes_.push_back(std::move(sc));
      --call_depth_;
      if (!s.ok()) return s.error();
      return ret;
    }

    // Host whitelist: only registered functions are reachable.
    if (const HostFn* fn = host_.Find(e.text)) {
      Result<Value> r = (*fn)(args);
      if (!r.ok()) {
        Error err = r.error();
        err.message = "in " + e.text + "(): " + err.message;
        err.line = e.line;
        return err;
      }
      return r;
    }
    return Error{Errc::kPermissionDenied,
                 "line " + std::to_string(e.line) + ": function '" + e.text +
                     "' is not in the allowed function whitelist",
                 e.line};
  }

  const HostRegistry& host_;
  const InterpreterOptions& opts_;
  std::vector<Scope> scopes_;
  std::map<std::string, const Stmt*> functions_;
  ExecutionResult result_;
  std::uint64_t steps_ = 0;
  int call_depth_ = 0;
};

}  // namespace

Result<ExecutionResult> Execute(const Program& program,
                                const HostRegistry& host,
                                const InterpreterOptions& opts) {
  AstWalker walker(host, opts);
  return walker.Execute(program);
}

Result<ExecutionResult> Run(std::string_view source, const HostRegistry& host,
                            const InterpreterOptions& opts) {
  Result<Program> program = Parse(source);
  if (!program.ok()) return program.error();
  return Execute(program.value(), host, opts);
}

}  // namespace sor::script::oracle
