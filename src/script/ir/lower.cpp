#include "script/ir/lower.hpp"

#include <cstring>
#include <map>
#include <utility>

namespace sor::script::ir {
namespace {

// Temporaries are allocated in a shadow index space during lowering (named
// slots and temps interleave in source order) and remapped to the top of the
// frame once the function's named-slot count is final.
constexpr Reg kTempBase = 1u << 20;

// The AST walker resolves names dynamically, but because SenseScript
// has no closures and function bodies only ever see [globals, own scope],
// in-order lexical resolution visits bindings in exactly the order the
// dynamic scope stack would: a name is a frame slot if a `local` (or param)
// for it has been walked in a still-open scope, and a global otherwise.
class Lowerer {
 public:
  Module Run(const Program& program) {
    m_.functions.emplace_back();  // reserve slot 0 for main
    FnCtx main;
    main.is_main = true;
    main.fn.name = "";
    fns_.push_back(&main);
    StartFunction(main);
    LowerBlockScope(program.statements, /*fresh_scope=*/false);
    Emit(Inst{.op = Op::kReturn, .line = 0});
    FinishFunction(main, /*slot=*/0);
    fns_.pop_back();
    return std::move(m_);
  }

 private:
  struct ScopeInfo {
    std::map<std::string, Reg> names;  // lexical binding -> named slot
    Reg base = 0;                      // first named slot of this scope
  };
  struct LoopCtx {
    int exit_block;
  };
  struct FnCtx {
    Function fn;
    std::vector<ScopeInfo> scopes;
    std::vector<LoopCtx> loop_stack;
    std::vector<BasicBlock::CtrlDep> ctrl;
    Reg named = 0;
    Reg temp = 0;       // next temp (shadow space)
    Reg max_temp = 0;   // high-water mark
    int cur = 0;        // current block id
    bool is_main = false;
    // AST ticks not yet charged to an instruction, all from one line.
    std::uint32_t pending_ticks = 0;
    int pending_line = 0;
  };

  FnCtx& ctx() { return *fns_.back(); }

  // --- module-level interning --------------------------------------------

  std::uint32_t NameIdx(const std::string& name) {
    auto it = name_idx_.find(name);
    if (it != name_idx_.end()) return it->second;
    const auto idx = static_cast<std::uint32_t>(m_.names.size());
    m_.names.push_back(name);
    name_idx_.emplace(name, idx);
    return idx;
  }

  std::uint32_t GlobalSlot(const std::string& name) {
    auto it = global_slot_.find(name);
    if (it != global_slot_.end()) return it->second;
    const auto idx = static_cast<std::uint32_t>(m_.global_names.size());
    m_.global_names.push_back(NameIdx(name));
    global_slot_.emplace(name, idx);
    return idx;
  }

  std::uint32_t ConstIdx(Value v) {
    std::string key;
    switch (v.kind()) {
      case Value::Kind::kNil: key = "n"; break;
      case Value::Kind::kBool: key = v.as_bool() ? "b1" : "b0"; break;
      case Value::Kind::kNumber: {
        // Key on the bit pattern so 0.0 and -0.0 stay distinct constants.
        const double d = v.as_number();
        char bits[sizeof(double)];
        std::memcpy(bits, &d, sizeof(double));
        key.assign(1, 'd');
        key.append(bits, sizeof(double));
        break;
      }
      case Value::Kind::kString: key = "s" + v.as_string(); break;
      case Value::Kind::kList: key = "?"; break;  // never interned
    }
    auto it = const_idx_.find(key);
    if (it != const_idx_.end()) return it->second;
    const auto idx = static_cast<std::uint32_t>(m_.consts.size());
    m_.consts.push_back(std::move(v));
    const_idx_.emplace(std::move(key), idx);
    return idx;
  }

  // --- block plumbing ----------------------------------------------------

  int NewBlock() {
    FnCtx& c = ctx();
    const int id = static_cast<int>(c.fn.blocks.size());
    c.fn.blocks.emplace_back();
    c.fn.blocks.back().ctrl_deps = c.ctrl;
    return id;
  }

  void SetBlock(int id) { ctx().cur = id; }

  // Appends `inst`, charged with the pending ticks: those of the nodes its
  // node's lowering began with, all on its line (Tick sees to that).
  void Emit(Inst inst) {
    FnCtx& c = ctx();
    inst.ticks = static_cast<std::uint16_t>(std::exchange(c.pending_ticks, 0));
    c.fn.blocks[static_cast<std::size_t>(c.cur)].insts.push_back(inst);
  }

  // The walker's Tick() at `line`, charged to the next instruction emitted.
  // Ticks come in pre-order, so each lands on the first instruction of its
  // node: where the walker ticks it, relative to every side effect.
  void Tick(int line) {
    FnCtx& c = ctx();
    if (c.pending_ticks != 0 &&
        (c.pending_line != line || c.pending_ticks == kMaxTicks))
      Emit(Inst{.op = Op::kTick, .line = c.pending_line});
    c.pending_line = line;
    ++c.pending_ticks;
  }

  Reg NewTemp() {
    FnCtx& c = ctx();
    const Reg t = kTempBase + c.temp++;
    if (c.temp > c.max_temp) c.max_temp = c.temp;
    return t;
  }

  static bool IsNamed(Reg r) { return r != kNoReg && r < kTempBase; }

  // Snapshot a register the current statement may later observe: named
  // slots are live storage, so their value must be captured at evaluation
  // time (the AST walker copies on Eval).
  Reg Snapshot(Reg r, int line) {
    if (!IsNamed(r)) return r;
    const Reg t = NewTemp();
    Emit(Inst{.op = Op::kMove, .line = line, .dst = t, .a = r});
    return t;
  }

  // --- name resolution ---------------------------------------------------

  // Returns the named slot for `name`, or kNoReg if it resolves to a global.
  Reg ResolveLocal(const std::string& name) {
    FnCtx& c = ctx();
    for (auto it = c.scopes.rbegin(); it != c.scopes.rend(); ++it) {
      if (auto v = it->names.find(name); v != it->names.end())
        return v->second;
    }
    return kNoReg;
  }

  Reg DeclareLocal(const std::string& name) {
    FnCtx& c = ctx();
    const Reg slot = c.named++;
    c.scopes.back().names[name] = slot;
    return slot;
  }

  // --- expressions -------------------------------------------------------

  Reg EvalExpr(const Expr& e) {
    Tick(e.line);
    switch (e.kind) {
      case Expr::Kind::kNumber: return EmitConst(Value(e.number), e.line);
      case Expr::Kind::kString: return EmitConst(Value(e.text), e.line);
      case Expr::Kind::kBool: return EmitConst(Value(e.boolean), e.line);
      case Expr::Kind::kNil: return EmitConst(Value(), e.line);
      case Expr::Kind::kName: return EvalName(e.text, e.line);
      case Expr::Kind::kUnary: {
        const Reg a = EvalExpr(*e.lhs);
        const Reg t = NewTemp();
        Emit(Inst{.op = Op::kUnOp,
                  .sub = static_cast<std::uint8_t>(e.un_op),
                  .line = e.line,
                  .dst = t,
                  .a = a});
        return t;
      }
      case Expr::Kind::kBinary:
        if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr)
          return EvalShortCircuit(e);
        return EvalBinary(e);
      case Expr::Kind::kCall: return EvalCall(e);
      case Expr::Kind::kIndex: {
        const Reg list = EvalExpr(*e.lhs);
        Emit(Inst{.op = Op::kCheckList, .line = e.line, .a = list});
        const Reg idx = EvalExpr(*e.rhs);
        const Reg t = NewTemp();
        Emit(Inst{.op = Op::kIndexGet,
                  .line = e.line,
                  .dst = t,
                  .a = list,
                  .b = idx});
        return t;
      }
      case Expr::Kind::kListLiteral: {
        const auto [base, count] = EvalArgList(e.args, e.line);
        const Reg t = NewTemp();
        Emit(Inst{.op = Op::kListNew,
                  .line = e.line,
                  .dst = t,
                  .a = base,
                  .b = count});
        return t;
      }
    }
    return kNoReg;  // unreachable for well-formed ASTs
  }

  Reg EmitConst(Value v, int line) {
    const Reg t = NewTemp();
    Emit(Inst{.op = Op::kConst,
              .line = line,
              .dst = t,
              .imm = ConstIdx(std::move(v))});
    return t;
  }

  Reg EvalName(const std::string& name, int line) {
    if (const Reg slot = ResolveLocal(name); slot != kNoReg) {
      Emit(Inst{.op = Op::kCheckDef,
                .line = line,
                .a = slot,
                .imm = NameIdx(name)});
      return slot;
    }
    const Reg t = NewTemp();
    Emit(Inst{.op = Op::kLoadGlobal,
              .line = line,
              .dst = t,
              .a = GlobalSlot(name)});
    return t;
  }

  Reg EvalBinary(const Expr& e) {
    const Reg a = Snapshot(EvalExpr(*e.lhs), e.line);
    const Reg b = EvalExpr(*e.rhs);
    const Reg t = NewTemp();
    Emit(Inst{.op = Op::kBinOp,
              .sub = static_cast<std::uint8_t>(e.bin_op),
              .line = e.line,
              .dst = t,
              .a = a,
              .b = b});
    return t;
  }

  // and/or lower to a branch: the result is one of the operands (Lua
  // semantics), carried in a dedicated temp so both paths write one reg.
  Reg EvalShortCircuit(const Expr& e) {
    const Reg lhs = EvalExpr(*e.lhs);
    const Reg t = NewTemp();
    Emit(Inst{.op = Op::kMove, .line = e.line, .dst = t, .a = lhs});
    Emit(Inst{.op = Op::kBranch, .sub = 0, .line = e.line, .a = t});
    const int branch_block = ctx().cur;

    ctx().ctrl.push_back({branch_block, t});
    const int rhs_block = NewBlock();
    SetBlock(rhs_block);
    const Reg rhs = EvalExpr(*e.rhs);
    Emit(Inst{.op = Op::kMove, .line = e.line, .dst = t, .a = rhs});
    Emit(Inst{.op = Op::kJump, .line = e.line});
    const int rhs_end = ctx().cur;
    ctx().ctrl.pop_back();

    const int merge = NewBlock();
    ctx().fn.blocks[static_cast<std::size_t>(rhs_end)]
        .insts.back()
        .then_block = merge;
    // `and` evaluates the rhs when the lhs is truthy; `or` when falsy.
    Inst& branch =
        ctx().fn.blocks[static_cast<std::size_t>(branch_block)].insts.back();
    if (e.bin_op == BinOp::kAnd) {
      branch.then_block = rhs_block;
      branch.else_block = merge;
    } else {
      branch.then_block = merge;
      branch.else_block = rhs_block;
    }
    SetBlock(merge);
    return t;
  }

  // Evaluate expressions left to right, snapshotting each value as the AST
  // walker does, then pack them into a contiguous temp range.
  std::pair<Reg, std::uint32_t> EvalArgList(const std::vector<ExprPtr>& args,
                                            int line) {
    std::vector<Reg> vals;
    vals.reserve(args.size());
    for (const ExprPtr& arg : args) vals.push_back(Snapshot(EvalExpr(*arg), line));
    // Already-contiguous temps (the common case) need no extra moves.
    bool contiguous = true;
    for (std::size_t i = 1; i < vals.size(); ++i) {
      if (vals[i] != vals[i - 1] + 1) contiguous = false;
    }
    if (!vals.empty() && contiguous)
      return {vals[0], static_cast<std::uint32_t>(vals.size())};
    const Reg base = ctx().temp + kTempBase;
    for (const Reg v : vals) {
      const Reg t = NewTemp();
      Emit(Inst{.op = Op::kMove, .line = line, .dst = t, .a = v});
    }
    return {vals.empty() ? kNoReg : base,
            static_cast<std::uint32_t>(vals.size())};
  }

  Reg EvalCall(const Expr& e) {
    const auto [base, count] = EvalArgList(e.args, e.line);
    const Reg t = NewTemp();
    Emit(Inst{.op = Op::kCall,
              .line = e.line,
              .dst = t,
              .a = base,
              .b = count,
              .imm = NameIdx(e.text)});
    had_call_ = true;
    return t;
  }

  // --- statements --------------------------------------------------------

  // Lowers a statement list inside a fresh block scope (if/while/for body).
  // Emits a kClearSlots covering every slot the scope (transitively)
  // declares so loop re-entry sees iteration-fresh locals, exactly like the
  // AST walker's per-iteration scope push.
  void LowerBlockScope(const std::vector<StmtPtr>& body, bool fresh_scope) {
    FnCtx& c = ctx();
    int clear_block = -1;
    std::size_t clear_idx = 0;
    const Reg base = c.named;
    if (fresh_scope) {
      clear_block = c.cur;
      Emit(Inst{.op = Op::kClearSlots, .line = 0, .a = base, .b = 0});
      clear_idx = c.fn.blocks[static_cast<std::size_t>(c.cur)].insts.size() - 1;
      c.scopes.push_back(ScopeInfo{{}, base});
    } else if (c.scopes.empty()) {
      // Main's outermost scope: `local` here lives in the walker's
      // global scope, so keep an empty sentinel that never binds slots.
      c.scopes.push_back(ScopeInfo{{}, base});
    }

    for (const StmtPtr& stmt : body) {
      const Reg temp_mark = c.temp;
      LowerStmt(*stmt);
      c.temp = temp_mark;
    }

    if (fresh_scope) {
      c.scopes.pop_back();
      Inst& clear = c.fn.blocks[static_cast<std::size_t>(clear_block)]
                        .insts[clear_idx];
      clear.b = c.named - base;
    }
  }

  bool AtMainTopLevel() const {
    const FnCtx& c = *fns_.back();
    return c.is_main && c.scopes.size() == 1;
  }

  void LowerStmt(const Stmt& st) {
    Tick(st.line);
    switch (st.kind) {
      case Stmt::Kind::kLocal: {
        had_call_ = false;
        const Reg v = EvalExpr(*st.expr);
        const std::uint8_t store =
            kStoreUser | kStoreDecl | (had_call_ ? 0 : kStorePure);
        if (AtMainTopLevel()) {
          // Top-level locals live in the walker's global scope.
          Emit(Inst{.op = Op::kStoreGlobal,
                    .sub = store,
                    .line = st.line,
                    .a = GlobalSlot(st.name),
                    .b = v});
        } else {
          const Reg slot = DeclareLocal(st.name);
          Emit(Inst{.op = Op::kMove,
                    .sub = store,
                    .line = st.line,
                    .dst = slot,
                    .a = v,
                    .imm = NameIdx(st.name)});
        }
        return;
      }
      case Stmt::Kind::kAssign: {
        had_call_ = false;
        const Reg v = EvalExpr(*st.expr);
        if (st.target_index) {
          // list[i] = v evaluates value, list, then index — and checks the
          // list between the last two (AST walker order).
          const Reg vv = Snapshot(v, st.line);
          const Reg list = EvalExpr(*st.target_index->lhs);
          Emit(Inst{.op = Op::kCheckList, .line = st.line, .a = list});
          const Reg idx = EvalExpr(*st.target_index->rhs);
          Emit(Inst{.op = Op::kIndexSet,
                    .line = st.line,
                    .a = list,
                    .b = idx,
                    .c = vv});
          return;
        }
        const std::uint8_t store =
            kStoreUser | (had_call_ ? 0 : kStorePure);
        if (const Reg slot = ResolveLocal(st.name); slot != kNoReg) {
          Emit(Inst{.op = Op::kMove,
                    .sub = store,
                    .line = st.line,
                    .dst = slot,
                    .a = v,
                    .imm = NameIdx(st.name)});
        } else {
          Emit(Inst{.op = Op::kStoreGlobal,
                    .sub = store,
                    .line = st.line,
                    .a = GlobalSlot(st.name),
                    .b = v});
        }
        return;
      }
      case Stmt::Kind::kExpr:
        EvalExpr(*st.expr);
        return;
      case Stmt::Kind::kIf: {
        const Reg cond = EvalExpr(*st.expr);
        Emit(Inst{.op = Op::kBranch, .sub = 1, .line = st.line, .a = cond});
        const int branch_block = ctx().cur;

        ctx().ctrl.push_back({branch_block, cond});
        const int then_block = NewBlock();
        SetBlock(then_block);
        LowerBlockScope(st.body, /*fresh_scope=*/true);
        Emit(Inst{.op = Op::kJump, .line = st.line});
        const int then_end = ctx().cur;

        int else_block = -1;
        int else_end = -1;
        if (!st.else_body.empty()) {
          else_block = NewBlock();
          SetBlock(else_block);
          LowerBlockScope(st.else_body, /*fresh_scope=*/true);
          Emit(Inst{.op = Op::kJump, .line = st.line});
          else_end = ctx().cur;
        }
        ctx().ctrl.pop_back();

        const int merge = NewBlock();
        auto& blocks = ctx().fn.blocks;
        blocks[static_cast<std::size_t>(then_end)].insts.back().then_block =
            merge;
        if (else_block >= 0) {
          blocks[static_cast<std::size_t>(else_end)]
              .insts.back()
              .then_block = merge;
        }
        Inst& branch =
            blocks[static_cast<std::size_t>(branch_block)].insts.back();
        branch.then_block = then_block;
        branch.else_block = else_block >= 0 ? else_block : merge;
        SetBlock(merge);
        return;
      }
      case Stmt::Kind::kWhile: {
        const int prehead = ctx().cur;
        Emit(Inst{.op = Op::kJump, .line = st.line});
        const int head = NewBlock();
        ctx().fn.blocks[static_cast<std::size_t>(prehead)]
            .insts.back()
            .then_block = head;
        SetBlock(head);
        Tick(st.line);  // the walker ticks once per condition check
        const Reg cond = EvalExpr(*st.expr);
        Emit(Inst{.op = Op::kBranch, .sub = 1, .line = st.line, .a = cond});
        const int cond_end = ctx().cur;

        ctx().ctrl.push_back({cond_end, cond});
        const int body = NewBlock();
        const std::size_t loop_idx = ctx().fn.loops.size();
        ctx().fn.loops.push_back(
            LoopInfo{.kind = LoopInfo::Kind::kWhile, .body_block = body});
        ctx().loop_stack.push_back(LoopCtx{-1});
        const std::size_t loop_stack_idx = ctx().loop_stack.size() - 1;
        SetBlock(body);
        LowerBlockScope(st.body, /*fresh_scope=*/true);
        Emit(Inst{.op = Op::kJump, .line = st.line, .then_block = head});
        ctx().ctrl.pop_back();

        const int exit = NewBlock();
        ctx().fn.loops[loop_idx].exit_block = exit;
        // Patch break jumps recorded while lowering the body.
        PatchBreaks(loop_stack_idx, exit);
        ctx().loop_stack.pop_back();
        ctx().fn.blocks[static_cast<std::size_t>(cond_end)]
            .insts.back()
            .then_block = body;
        ctx().fn.blocks[static_cast<std::size_t>(cond_end)]
            .insts.back()
            .else_block = exit;
        SetBlock(exit);
        return;
      }
      case Stmt::Kind::kNumericFor: {
        // start / stop / step evaluate once, in that order, before any
        // checks; the hidden counter is distinct from the loop variable so
        // body writes to the variable cannot perturb iteration.
        const Reg start = Snapshot(EvalExpr(*st.for_start), st.line);
        const Reg stop = Snapshot(EvalExpr(*st.for_stop), st.line);
        Reg step = kNoReg;
        const bool explicit_step = st.for_step != nullptr;
        if (explicit_step) {
          step = Snapshot(EvalExpr(*st.for_step), st.line);
        } else {
          step = EmitConst(Value(1.0), st.line);
        }
        Emit(Inst{.op = Op::kForCheck,
                  .line = st.line,
                  .a = start,
                  .b = stop,
                  .c = step,
                  .imm = explicit_step ? 1u : 0u});
        const Reg counter = NewTemp();
        Emit(Inst{.op = Op::kMove, .line = st.line, .dst = counter, .a = start});
        const int prehead = ctx().cur;
        Emit(Inst{.op = Op::kJump, .line = st.line});

        const int head = NewBlock();
        ctx().fn.blocks[static_cast<std::size_t>(prehead)]
            .insts.back()
            .then_block = head;
        SetBlock(head);
        Emit(Inst{.op = Op::kForLoop,
                  .line = st.line,
                  .a = counter,
                  .b = stop,
                  .c = step});

        ctx().ctrl.push_back({head, counter});
        ctx().ctrl.push_back({head, stop});
        ctx().ctrl.push_back({head, step});
        const int body = NewBlock();
        const std::size_t loop_idx = ctx().fn.loops.size();
        ctx().fn.loops.push_back(
            LoopInfo{.kind = LoopInfo::Kind::kNumericFor, .body_block = body});
        ctx().loop_stack.push_back(LoopCtx{-1});
        const std::size_t loop_stack_idx = ctx().loop_stack.size() - 1;
        SetBlock(body);
        // The visible loop variable is a fresh block-scope local bound to
        // the counter at each iteration entry.
        FnCtx& c = ctx();
        const Reg scope_base = c.named;
        const int clear_block = c.cur;
        Emit(Inst{.op = Op::kClearSlots, .line = 0, .a = scope_base, .b = 0});
        const std::size_t clear_idx =
            c.fn.blocks[static_cast<std::size_t>(c.cur)].insts.size() - 1;
        c.scopes.push_back(ScopeInfo{{}, scope_base});
        const Reg var = DeclareLocal(st.name);
        Tick(st.line);  // the walker ticks once per iteration entered
        Emit(Inst{.op = Op::kMove, .line = st.line, .dst = var, .a = counter});
        for (const StmtPtr& stmt : st.body) {
          const Reg temp_mark = c.temp;
          LowerStmt(*stmt);
          c.temp = temp_mark;
        }
        c.scopes.pop_back();
        c.fn.blocks[static_cast<std::size_t>(clear_block)]
            .insts[clear_idx]
            .b = c.named - scope_base;
        Emit(Inst{.op = Op::kJump, .line = st.line});
        const int body_end = ctx().cur;

        const int latch = NewBlock();
        ctx().fn.blocks[static_cast<std::size_t>(body_end)]
            .insts.back()
            .then_block = latch;
        SetBlock(latch);
        Emit(Inst{.op = Op::kForStep, .line = st.line, .a = counter, .c = step});
        Emit(Inst{.op = Op::kJump, .line = st.line, .then_block = head});
        ctx().ctrl.pop_back();
        ctx().ctrl.pop_back();
        ctx().ctrl.pop_back();

        const int exit = NewBlock();
        ctx().fn.loops[loop_idx].exit_block = exit;
        PatchBreaks(loop_stack_idx, exit);
        ctx().loop_stack.pop_back();
        Inst& test =
            ctx().fn.blocks[static_cast<std::size_t>(head)].insts.back();
        test.then_block = body;
        test.else_block = exit;
        SetBlock(exit);
        return;
      }
      case Stmt::Kind::kFunction: {
        const std::uint32_t fn_idx = LowerFunction(st);
        Emit(Inst{.op = Op::kDefineFn,
                  .line = st.line,
                  .a = NameIdx(st.name),
                  .b = fn_idx});
        return;
      }
      case Stmt::Kind::kReturn: {
        Reg v = kNoReg;
        if (st.expr) v = EvalExpr(*st.expr);
        Emit(Inst{.op = Op::kReturn, .line = st.line, .a = v});
        SetBlock(NewBlock());  // unreachable continuation
        return;
      }
      case Stmt::Kind::kBreak: {
        if (ctx().loop_stack.empty()) {
          // The AST walker unwinds a loop-less break out of the whole
          // block, leaving the return value nil — same as `return`.
          Emit(Inst{.op = Op::kReturn, .line = st.line});
        } else {
          // Exit block doesn't exist yet; record for patching.
          Emit(Inst{.op = Op::kJump, .line = st.line, .then_block = -2});
          break_sites_.push_back({fns_.size() - 1,
                                  ctx().loop_stack.size() - 1, ctx().cur});
        }
        SetBlock(NewBlock());
        return;
      }
    }
  }

  void PatchBreaks(std::size_t loop_stack_idx, int exit) {
    auto& sites = break_sites_;
    for (std::size_t i = sites.size(); i > 0; --i) {
      const BreakSite& s = sites[i - 1];
      if (s.fn_depth != fns_.size() - 1 || s.loop_idx != loop_stack_idx)
        continue;
      ctx()
          .fn.blocks[static_cast<std::size_t>(s.block)]
          .insts.back()
          .then_block = exit;
      sites.erase(sites.begin() + static_cast<std::ptrdiff_t>(i - 1));
    }
  }

  // --- function lowering -------------------------------------------------

  std::uint32_t LowerFunction(const Stmt& st) {
    FnCtx fc;
    fc.fn.name = st.name;
    fc.fn.def_line = st.line;
    fc.fn.num_params = static_cast<std::uint32_t>(st.params.size());
    fns_.push_back(&fc);
    StartFunction(fc);
    // Params bind in order; a duplicated name rebinds to the later slot,
    // matching the walker's map-overwrite behaviour.
    fc.scopes.push_back(ScopeInfo{{}, 0});
    for (const std::string& p : st.params) DeclareLocal(p);
    for (const StmtPtr& stmt : st.body) {
      const Reg temp_mark = fc.temp;
      LowerStmt(*stmt);
      fc.temp = temp_mark;
    }
    Emit(Inst{.op = Op::kReturn, .line = st.line});
    fns_.pop_back();

    const auto slot = static_cast<std::uint32_t>(m_.functions.size());
    m_.functions.emplace_back();
    FinishFunction(fc, slot);
    return slot;
  }

  void StartFunction(FnCtx& fc) {
    fc.fn.blocks.emplace_back();  // entry block
    fc.cur = 0;
  }

  void FinishFunction(FnCtx& fc, std::uint32_t slot) {
    // Remap shadow temp indices to the top of the frame.
    const Reg named = fc.named;
    auto remap = [named](Reg& r) {
      if (r != kNoReg && r >= kTempBase) r = named + (r - kTempBase);
    };
    for (BasicBlock& b : fc.fn.blocks) {
      for (Inst& inst : b.insts) {
        remap(inst.dst);
        switch (inst.op) {
          case Op::kStoreGlobal:
            remap(inst.b);
            break;
          case Op::kLoadGlobal:
          case Op::kDefineFn:
          case Op::kClearSlots:
            break;  // a (and b) are slot/index operands, not regs
          case Op::kCall:
          case Op::kListNew:
            remap(inst.a);  // b is the arg count
            break;
          default:
            remap(inst.a);
            remap(inst.b);
            remap(inst.c);
            break;
        }
      }
      for (BasicBlock::CtrlDep& dep : b.ctrl_deps) remap(dep.cond);
    }
    fc.fn.num_named = named;
    fc.fn.num_regs = named + fc.max_temp;
    RebuildEdges(fc.fn);
    m_.functions[slot] = std::move(fc.fn);
  }

  struct BreakSite {
    std::size_t fn_depth;
    std::size_t loop_idx;
    int block;
  };

  Module m_;
  std::vector<FnCtx*> fns_;  // lowering stack (nested function defs)
  std::vector<BreakSite> break_sites_;
  std::map<std::string, std::uint32_t> name_idx_;
  std::map<std::string, std::uint32_t> global_slot_;
  std::map<std::string, std::uint32_t> const_idx_;
  bool had_call_ = false;
};

}  // namespace

Module Lower(const Program& program) {
  Lowerer lowerer;
  return lowerer.Run(program);
}

}  // namespace sor::script::ir
