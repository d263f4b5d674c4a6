#include "script/analysis/passes.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>

#include "script/analysis/dataflow.hpp"
#include "script/host_api.hpp"
#include "script/ast.hpp"

namespace sor::script::analysis {
namespace {

using ir::BasicBlock;
using ir::Inst;
using ir::kNoReg;
using ir::Op;
using ir::Reg;

// --- shared helpers --------------------------------------------------------

bool HasDst(Op op) {
  switch (op) {
    case Op::kConst:
    case Op::kMove:
    case Op::kLoadGlobal:
    case Op::kUnOp:
    case Op::kBinOp:
    case Op::kIndexGet:
    case Op::kListNew:
    case Op::kCall:
      return true;
    default:
      return false;
  }
}

template <typename F>
void ForEachUse(const Inst& i, F f) {
  switch (i.op) {
    case Op::kMove:
    case Op::kUnOp:
    case Op::kCheckDef:
    case Op::kCheckList:
    case Op::kBranch:
      f(i.a);
      break;
    case Op::kBinOp:
    case Op::kIndexGet:
      f(i.a);
      f(i.b);
      break;
    case Op::kIndexSet:
    case Op::kForCheck:
    case Op::kForLoop:
      f(i.a);
      f(i.b);
      f(i.c);
      break;
    case Op::kForStep:
      f(i.a);
      f(i.c);
      break;
    case Op::kStoreGlobal:
      f(i.b);
      break;
    case Op::kCall:
    case Op::kListNew:
      for (std::uint32_t k = 0; k < i.b; ++k) f(i.a + k);
      break;
    case Op::kReturn:
      if (i.a != kNoReg) f(i.a);
      break;
    default:
      break;  // kConst, kClearSlots, kLoadGlobal, kDefineFn, kJump
  }
}

// Deleting an instruction keeps its AST ticks (steps and the budget count
// them) on a kTick of its line, which MergeTicks folds into the next
// instruction when that one is on the same line. Deleted instructions are
// pure and total: retiring their ticks an instruction later is unseen.
void DropKeepingTicks(const Inst& inst, std::vector<Inst>& kept) {
  if (inst.ticks != 0)
    kept.push_back(Inst{.op = Op::kTick, .ticks = inst.ticks, .line = inst.line});
}

void MergeTicks(std::vector<Inst>& insts) {
  std::size_t kept = 0;
  for (Inst inst : insts) {
    const Inst* prev = kept > 0 ? &insts[kept - 1] : nullptr;
    if (prev != nullptr && prev->op == Op::kTick && prev->line == inst.line &&
        prev->ticks + inst.ticks <= ir::kMaxTicks) {
      inst.ticks = static_cast<std::uint16_t>(inst.ticks + prev->ticks);
      --kept;
    }
    insts[kept++] = inst;
  }
  insts.resize(kept);
}

std::vector<std::uint8_t> ReachableBlocks(const ir::Function& fn) {
  std::vector<std::uint8_t> reach(fn.blocks.size(), 0);
  std::vector<int> work{0};
  if (!fn.blocks.empty()) reach[0] = 1;
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    for (const int s : fn.blocks[static_cast<std::size_t>(b)].succs) {
      if (s >= 0 && static_cast<std::size_t>(s) < reach.size() && !reach[s]) {
        reach[static_cast<std::size_t>(s)] = 1;
        work.push_back(s);
      }
    }
  }
  return reach;
}

// Module-wide facts every pass shares.
struct ModuleInfo {
  // name idx -> function indices bound by some kDefineFn.
  std::map<std::uint32_t, std::vector<std::uint32_t>> candidates;
  // [fn][global]: may the function (transitively) store this global?
  std::vector<std::vector<std::uint8_t>> global_writes;
  std::vector<std::uint8_t> global_loaded;  // any kLoadGlobal, module-wide
  std::vector<std::uint8_t> global_stored;  // any kStoreGlobal, module-wide
};

ModuleInfo ComputeModuleInfo(const ir::Module& m) {
  ModuleInfo info;
  const std::size_t nglobals = m.global_names.size();
  info.global_loaded.assign(nglobals, 0);
  info.global_stored.assign(nglobals, 0);
  info.global_writes.assign(m.functions.size(),
                            std::vector<std::uint8_t>(nglobals, 0));
  for (std::size_t f = 0; f < m.functions.size(); ++f) {
    for (const BasicBlock& b : m.functions[f].blocks) {
      for (const Inst& inst : b.insts) {
        if (inst.op == Op::kDefineFn) {
          info.candidates[inst.a].push_back(inst.b);
        } else if (inst.op == Op::kStoreGlobal) {
          info.global_stored[inst.a] = 1;
          info.global_writes[f][inst.a] = 1;
        } else if (inst.op == Op::kLoadGlobal) {
          info.global_loaded[inst.a] = 1;
        }
      }
    }
  }
  // Transitive closure of global writes across calls.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t f = 0; f < m.functions.size(); ++f) {
      for (const BasicBlock& b : m.functions[f].blocks) {
        for (const Inst& inst : b.insts) {
          if (inst.op != Op::kCall) continue;
          const auto it = info.candidates.find(inst.imm);
          if (it == info.candidates.end()) continue;
          for (const std::uint32_t callee : it->second) {
            for (std::size_t g = 0; g < nglobals; ++g) {
              if (info.global_writes[callee][g] && !info.global_writes[f][g]) {
                info.global_writes[f][g] = 1;
                changed = true;
              }
            }
          }
        }
      }
    }
  }
  return info;
}

// --- constant propagation / folding ---------------------------------------

struct CV {
  enum class K : std::uint8_t { kBottom, kConst, kTop };
  K k = K::kBottom;
  Value v;
};

// Fold only operations that are total on the given constant operands (no
// runtime error possible, deterministic result).
std::optional<Value> FoldUnOp(std::uint8_t sub, const Value& v) {
  switch (static_cast<UnOp>(sub)) {
    case UnOp::kNeg:
      if (v.is_number()) return Value(-v.as_number());
      return std::nullopt;
    case UnOp::kNot:
      return Value(!v.truthy());
    case UnOp::kLen:
      if (v.is_string())
        return Value(static_cast<double>(v.as_string().size()));
      return std::nullopt;
  }
  return std::nullopt;
}

std::optional<Value> FoldBinOp(std::uint8_t sub, const Value& a,
                               const Value& b) {
  const bool nums = a.is_number() && b.is_number();
  switch (static_cast<BinOp>(sub)) {
    case BinOp::kAdd:
      if (nums) return Value(a.as_number() + b.as_number());
      return std::nullopt;
    case BinOp::kSub:
      if (nums) return Value(a.as_number() - b.as_number());
      return std::nullopt;
    case BinOp::kMul:
      if (nums) return Value(a.as_number() * b.as_number());
      return std::nullopt;
    case BinOp::kDiv:
      if (nums) return Value(a.as_number() / b.as_number());
      return std::nullopt;
    case BinOp::kMod:
      if (nums) return Value(std::fmod(a.as_number(), b.as_number()));
      return std::nullopt;
    case BinOp::kConcat:
      if (!a.is_list() && !b.is_list())
        return Value(a.ToDisplayString() + b.ToDisplayString());
      return std::nullopt;
    case BinOp::kEq: return Value(a.Equals(b));
    case BinOp::kNe: return Value(!a.Equals(b));
    case BinOp::kLt:
      if (nums) return Value(a.as_number() < b.as_number());
      if (a.is_string() && b.is_string())
        return Value(a.as_string().compare(b.as_string()) < 0);
      return std::nullopt;
    case BinOp::kLe:
      if (nums) return Value(a.as_number() <= b.as_number());
      if (a.is_string() && b.is_string())
        return Value(a.as_string().compare(b.as_string()) <= 0);
      return std::nullopt;
    case BinOp::kGt:
      if (nums) return Value(a.as_number() > b.as_number());
      if (a.is_string() && b.is_string())
        return Value(a.as_string().compare(b.as_string()) > 0);
      return std::nullopt;
    case BinOp::kGe:
      if (nums) return Value(a.as_number() >= b.as_number());
      if (a.is_string() && b.is_string())
        return Value(a.as_string().compare(b.as_string()) >= 0);
      return std::nullopt;
    case BinOp::kAnd:
    case BinOp::kOr:
      return std::nullopt;  // lowered to branches
  }
  return std::nullopt;
}

struct ConstDomain {
  using State = std::vector<CV>;
  const ir::Module& m;

  State Boundary(const ir::Function& fn) const {
    return State(fn.num_regs, CV{CV::K::kTop, Value()});
  }
  State Bottom(const ir::Function& fn) const { return State(fn.num_regs); }

  static bool JoinCV(CV& into, const CV& from) {
    if (from.k == CV::K::kBottom) return false;
    if (into.k == CV::K::kBottom) {
      into = from;
      return true;
    }
    if (into.k == CV::K::kTop) return false;
    if (from.k == CV::K::kTop ||
        !(into.v.kind() == from.v.kind() && EqualBits(into.v, from.v))) {
      into = CV{CV::K::kTop, Value()};
      return true;
    }
    return false;
  }

  static bool EqualBits(const Value& a, const Value& b) {
    if (a.kind() != b.kind()) return false;
    switch (a.kind()) {
      case Value::Kind::kNil: return true;
      case Value::Kind::kBool: return a.as_bool() == b.as_bool();
      case Value::Kind::kNumber: {
        const double x = a.as_number();
        const double y = b.as_number();
        return std::memcmp(&x, &y, sizeof(double)) == 0;
      }
      case Value::Kind::kString: return a.as_string() == b.as_string();
      case Value::Kind::kList: return false;
    }
    return false;
  }

  bool Join(State& into, const State& from) const {
    bool changed = false;
    for (std::size_t i = 0; i < into.size(); ++i)
      changed |= JoinCV(into[i], from[i]);
    return changed;
  }

  void Apply(const Inst& inst, State& s) const {
    const CV top{CV::K::kTop, Value()};
    switch (inst.op) {
      case Op::kConst:
        s[inst.dst] = CV{CV::K::kConst, m.consts[inst.imm]};
        break;
      case Op::kMove:
        s[inst.dst] = s[inst.a];
        break;
      case Op::kUnOp:
        if (s[inst.a].k == CV::K::kConst) {
          if (auto v = FoldUnOp(inst.sub, s[inst.a].v)) {
            s[inst.dst] = CV{CV::K::kConst, *v};
            break;
          }
        }
        s[inst.dst] = top;
        break;
      case Op::kBinOp:
        if (s[inst.a].k == CV::K::kConst && s[inst.b].k == CV::K::kConst) {
          if (auto v = FoldBinOp(inst.sub, s[inst.a].v, s[inst.b].v)) {
            s[inst.dst] = CV{CV::K::kConst, *v};
            break;
          }
        }
        s[inst.dst] = top;
        break;
      case Op::kClearSlots:
        for (Reg r = inst.a; r < inst.a + inst.b; ++r) s[r] = top;
        break;
      case Op::kForStep:
        s[inst.a] = top;
        break;
      default:
        if (HasDst(inst.op)) s[inst.dst] = top;
        break;
    }
  }

  void Transfer(const ir::Function& fn, int block, State& s) const {
    for (const Inst& inst :
         fn.blocks[static_cast<std::size_t>(block)].insts)
      Apply(inst, s);
  }
};

std::uint32_t InternConst(ir::Module& m, const Value& v) {
  for (std::size_t i = 0; i < m.consts.size(); ++i) {
    if (ConstDomain::EqualBits(m.consts[i], v))
      return static_cast<std::uint32_t>(i);
  }
  m.consts.push_back(v);
  return static_cast<std::uint32_t>(m.consts.size() - 1);
}

// Returns true if at least one branch was folded.
bool ConstFoldFunction(ir::Module& m, std::size_t fn_idx,
                       OptimizeReport* report) {
  ir::Function& fn = m.functions[fn_idx];
  ConstDomain domain{m};
  const DataflowResult<ConstDomain> df =
      Solve(fn, domain, Direction::kForward);

  bool folded_any = false;
  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    ConstDomain::State s = df.in[bi];
    for (Inst& inst : fn.blocks[bi].insts) {
      // Fold pure value-producing instructions whose result is known. User
      // stores keep their kMove form so dead-store diagnostics retain the
      // variable name; branch targets are rewritten below.
      const bool user_store =
          inst.op == Op::kMove && (inst.sub & ir::kStoreUser) != 0;
      if ((inst.op == Op::kUnOp || inst.op == Op::kBinOp ||
           (inst.op == Op::kMove && !user_store)) &&
          inst.dst != kNoReg) {
        CV before = s[inst.a];
        CV result;
        if (inst.op == Op::kMove) {
          result = before;
        } else if (inst.op == Op::kUnOp && before.k == CV::K::kConst) {
          if (auto v = FoldUnOp(inst.sub, before.v))
            result = CV{CV::K::kConst, *v};
        } else if (inst.op == Op::kBinOp && before.k == CV::K::kConst &&
                   s[inst.b].k == CV::K::kConst) {
          if (auto v = FoldBinOp(inst.sub, before.v, s[inst.b].v))
            result = CV{CV::K::kConst, *v};
        }
        if (result.k == CV::K::kConst) {
          domain.Apply(inst, s);
          inst.op = Op::kConst;
          inst.sub = 0;
          inst.a = inst.b = inst.c = kNoReg;
          inst.imm = InternConst(m, result.v);
          continue;
        }
      }
      if (inst.op == Op::kBranch && s[inst.a].k == CV::K::kConst) {
        const bool truthy = s[inst.a].v.truthy();
        if (report != nullptr && inst.sub == 1) {
          bool while_head = false;
          for (const ir::LoopInfo& loop : fn.loops) {
            if (loop.kind == ir::LoopInfo::Kind::kWhile &&
                loop.body_block == inst.then_block &&
                loop.exit_block == inst.else_block) {
              while_head = true;
              break;
            }
          }
          report->folded_branches.push_back(
              {inst.line, truthy, inst.sub == 1, while_head});
        }
        const int target = truthy ? inst.then_block : inst.else_block;
        inst.op = Op::kJump;
        inst.sub = 0;
        inst.a = kNoReg;
        inst.then_block = target;
        inst.else_block = -1;
        folded_any = true;
        continue;
      }
      domain.Apply(inst, s);
    }
  }
  return folded_any;
}

// --- definite assignment (CheckDef elision + SA501) ------------------------

struct DefState {
  bool reached = false;
  // Slot space: [0, num_named) frame slots, then one per global.
  std::vector<std::uint8_t> must;
  std::vector<std::uint8_t> may;
};

struct DefDomain {
  using State = DefState;
  const ir::Module& m;
  const ModuleInfo& info;
  bool is_main = false;

  State Boundary(const ir::Function& fn) const {
    State s;
    s.reached = true;
    const std::size_t n = fn.num_named + m.global_names.size();
    s.must.assign(n, 0);
    s.may.assign(n, 0);
    for (std::uint32_t p = 0; p < fn.num_params && p < fn.num_named; ++p) {
      s.must[p] = 1;
      s.may[p] = 1;
    }
    if (!is_main) {
      // A function can be called at any point of main's execution: any
      // global with a store anywhere may be live by then.
      for (std::size_t g = 0; g < m.global_names.size(); ++g)
        s.may[fn.num_named + g] = info.global_stored[g];
    }
    return s;
  }
  State Bottom(const ir::Function&) const { return {}; }

  bool Join(State& into, const State& from) const {
    if (!from.reached) return false;
    if (!into.reached) {
      into = from;
      return true;
    }
    bool changed = false;
    for (std::size_t i = 0; i < into.must.size(); ++i) {
      if (into.must[i] && !from.must[i]) {
        into.must[i] = 0;
        changed = true;
      }
      if (!into.may[i] && from.may[i]) {
        into.may[i] = 1;
        changed = true;
      }
    }
    return changed;
  }

  void Apply(const ir::Function& fn, const Inst& inst, State& s) const {
    switch (inst.op) {
      case Op::kMove:
      case Op::kConst:
      case Op::kLoadGlobal:
      case Op::kUnOp:
      case Op::kBinOp:
      case Op::kIndexGet:
      case Op::kListNew:
      case Op::kCall:
        if (inst.dst != kNoReg && inst.dst < fn.num_named) {
          s.must[inst.dst] = 1;
          s.may[inst.dst] = 1;
        }
        if (inst.op == Op::kCall) {
          const auto it = info.candidates.find(inst.imm);
          if (it != info.candidates.end()) {
            for (const std::uint32_t callee : it->second) {
              for (std::size_t g = 0; g < m.global_names.size(); ++g) {
                if (info.global_writes[callee][g])
                  s.may[fn.num_named + g] = 1;
              }
            }
          }
        }
        break;
      case Op::kClearSlots:
        for (Reg r = inst.a; r < inst.a + inst.b; ++r) {
          if (r < fn.num_named) {
            s.must[r] = 0;
            s.may[r] = 0;
          }
        }
        break;
      case Op::kStoreGlobal:
        s.must[fn.num_named + inst.a] = 1;
        s.may[fn.num_named + inst.a] = 1;
        break;
      default:
        break;
    }
  }

  void Transfer(const ir::Function& fn, int block, State& s) const {
    if (!s.reached) return;
    for (const Inst& inst :
         fn.blocks[static_cast<std::size_t>(block)].insts)
      Apply(fn, inst, s);
  }
};

void DefiniteAssignment(ir::Module& m, std::size_t fn_idx,
                        const ModuleInfo& info, OptimizeReport* report) {
  ir::Function& fn = m.functions[fn_idx];
  DefDomain domain{m, info, fn_idx == 0};
  const DataflowResult<DefDomain> df = Solve(fn, domain, Direction::kForward);
  const std::vector<std::uint8_t> reach = ReachableBlocks(fn);

  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    if (!reach[bi] || !df.in[bi].reached) continue;
    DefState s = df.in[bi];
    std::vector<Inst> kept;
    kept.reserve(fn.blocks[bi].insts.size());
    for (const Inst& inst : fn.blocks[bi].insts) {
      if (inst.op == Op::kCheckDef) {
        if (s.must[inst.a]) {  // provably assigned: elide
          DropKeepingTicks(inst, kept);
          continue;
        }
        if (report != nullptr && !s.may[inst.a]) {
          report->undef_uses.push_back({inst.line, m.names[inst.imm]});
        }
      } else if (inst.op == Op::kLoadGlobal && report != nullptr) {
        // Only when the global IS stored somewhere: a never-stored name is
        // the syntactic pass's SA101, not a flow fact.
        if (!s.may[fn.num_named + inst.a] && info.global_stored[inst.a]) {
          report->undef_uses.push_back(
              {inst.line, m.names[m.global_names[inst.a]]});
        }
      }
      domain.Apply(fn, inst, s);
      kept.push_back(inst);
    }
    MergeTicks(kept);
    fn.blocks[bi].insts = std::move(kept);
  }
}

// --- liveness + dead code elimination (SA502) ------------------------------

struct LiveDomain {
  using State = std::vector<std::uint8_t>;  // live regs

  State Boundary(const ir::Function& fn) const {
    return State(fn.num_regs, 0);
  }
  State Bottom(const ir::Function& fn) const {
    return State(fn.num_regs, 0);
  }
  bool Join(State& into, const State& from) const {
    bool changed = false;
    for (std::size_t i = 0; i < into.size(); ++i) {
      if (!into[i] && from[i]) {
        into[i] = 1;
        changed = true;
      }
    }
    return changed;
  }
  void Transfer(const ir::Function& fn, int block, State& s) const {
    const auto& insts = fn.blocks[static_cast<std::size_t>(block)].insts;
    for (auto it = insts.rbegin(); it != insts.rend(); ++it) {
      if (HasDst(it->op) && it->dst != kNoReg) s[it->dst] = 0;
      ForEachUse(*it, [&s](Reg r) {
        if (r != kNoReg) s[r] = 1;
      });
    }
  }
};

bool Removable(const Inst& inst) {
  switch (inst.op) {
    case Op::kConst:
    case Op::kMove:
    case Op::kListNew:
      return true;  // pure and total: removal is unobservable
    default:
      return false;
  }
}

void DeadCodeElim(ir::Module& m, std::size_t fn_idx, const ModuleInfo& info,
                  OptimizeReport* report) {
  ir::Function& fn = m.functions[fn_idx];
  LiveDomain domain;
  const DataflowResult<LiveDomain> df = Solve(fn, domain, Direction::kBackward);
  const std::vector<std::uint8_t> reach = ReachableBlocks(fn);

  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    if (!reach[bi]) continue;
    LiveDomain::State live = df.in[bi];  // live at block exit
    std::vector<Inst> kept_rev;
    const auto& insts = fn.blocks[bi].insts;
    for (auto it = insts.rbegin(); it != insts.rend(); ++it) {
      const Inst& inst = *it;
      const bool dead_dst =
          HasDst(inst.op) && inst.dst != kNoReg && !live[inst.dst];
      if (inst.op == Op::kClearSlots && inst.b == 0) {
        DropKeepingTicks(inst, kept_rev);
        continue;
      }
      if (dead_dst && Removable(inst)) {
        if (report != nullptr && inst.op == Op::kMove &&
            (inst.sub & ir::kStoreUser) != 0 &&
            (inst.sub & ir::kStorePure) != 0) {
          report->dead_stores.push_back({inst.line, m.names[inst.imm]});
        }
        DropKeepingTicks(inst, kept_rev);
        continue;  // drop: its uses generate no liveness
      }
      if (report != nullptr && inst.op == Op::kStoreGlobal &&
          (inst.sub & ir::kStoreUser) != 0 &&
          (inst.sub & ir::kStorePure) != 0 && !info.global_loaded[inst.a]) {
        report->dead_stores.push_back(
            {inst.line, m.names[m.global_names[inst.a]]});
      }
      if (HasDst(inst.op) && inst.dst != kNoReg) live[inst.dst] = 0;
      ForEachUse(inst, [&live](Reg r) {
        if (r != kNoReg) live[r] = 1;
      });
      kept_rev.push_back(inst);
    }
    std::reverse(kept_rev.begin(), kept_rev.end());
    MergeTicks(kept_rev);
    fn.blocks[bi].insts = std::move(kept_rev);
  }
}

}  // namespace

// --- optimization driver ---------------------------------------------------

void OptimizeModule(ir::Module& m, OptimizeReport* report) {
  const ModuleInfo info = ComputeModuleInfo(m);
  if (report != nullptr) {
    // Dead-store diagnosis runs on the UNOPTIMIZED IR: constant propagation
    // rewrites reads of a variable into materialized constants, which would
    // make a source-level-read store look dead. The optimizer below still
    // removes such stores — they just aren't reported to the user.
    ir::Module pristine = m;
    OptimizeReport source_level;
    for (std::size_t f = 0; f < pristine.functions.size(); ++f) {
      DeadCodeElim(pristine, f, info, &source_level);
    }
    report->dead_stores = std::move(source_level.dead_stores);
  }
  for (std::size_t f = 0; f < m.functions.size(); ++f) {
    ir::Function& fn = m.functions[f];
    const std::vector<std::uint8_t> pre_reach = ReachableBlocks(fn);
    for (int round = 0; round < 4; ++round) {
      const bool folded = ConstFoldFunction(m, f, round == 0 ? report : nullptr);
      ir::RebuildEdges(m.functions[f]);
      if (!folded) break;
    }
    if (report != nullptr) {
      const std::vector<std::uint8_t> post_reach = ReachableBlocks(fn);
      for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
        if (!pre_reach[bi] || post_reach[bi]) continue;
        for (const Inst& inst : fn.blocks[bi].insts) {
          if (inst.line > 0 && inst.op != Op::kTick) {
            report->unreachable_lines.push_back(inst.line);
            break;
          }
        }
      }
    }
    DefiniteAssignment(m, f, info, report);
    DeadCodeElim(m, f, info, nullptr);  // dead stores already diagnosed above
  }
}

namespace {

// --- sensor taint ----------------------------------------------------------

using TaintMask = std::uint32_t;

TaintMask SensorBit(SensorKind k) {
  return TaintMask{1} << static_cast<unsigned>(k);
}

struct TaintCtx {
  // Module-level facts, accumulated monotonically across solver rounds.
  std::vector<TaintMask> global_taint;                // per global
  std::vector<std::vector<TaintMask>> param_in;       // per fn, per param
  std::vector<TaintMask> ret_taint;                   // per fn
  std::vector<std::vector<TaintMask>> branch_taint;   // per fn, per block
  // Output sites: (kind, line) -> sensors influencing the value there.
  std::map<std::pair<int, int>, TaintMask> sites;
  bool has_acquisition = false;
  bool changed = false;

  void Accum(TaintMask& dst, TaintMask bits) {
    if ((dst & bits) != bits) {
      dst |= bits;
      changed = true;
    }
  }
};

struct TaintState {
  bool reached = false;
  std::vector<TaintMask> regs;
};

struct TaintDomain {
  using State = TaintState;
  const ir::Module& m;
  const ModuleInfo& info;
  TaintCtx& ctx;
  std::size_t fn_idx;

  State Boundary(const ir::Function& fn) const {
    State s;
    s.reached = true;
    s.regs.assign(fn.num_regs, 0);
    const std::vector<TaintMask>& params = ctx.param_in[fn_idx];
    for (std::uint32_t p = 0; p < fn.num_params && p < params.size(); ++p)
      s.regs[p] = params[p];
    return s;
  }
  State Bottom(const ir::Function&) const { return {}; }

  bool Join(State& into, const State& from) const {
    if (!from.reached) return false;
    if (!into.reached) {
      into = from;
      return true;
    }
    bool changed = false;
    for (std::size_t i = 0; i < into.regs.size(); ++i) {
      if ((into.regs[i] | from.regs[i]) != into.regs[i]) {
        into.regs[i] |= from.regs[i];
        changed = true;
      }
    }
    return changed;
  }

  void Transfer(const ir::Function& fn, int block, State& s) const {
    if (!s.reached) return;
    const BasicBlock& bb = fn.blocks[static_cast<std::size_t>(block)];
    TaintMask ctrl = 0;
    for (const BasicBlock::CtrlDep& dep : bb.ctrl_deps) {
      const auto& bt = ctx.branch_taint[fn_idx];
      if (static_cast<std::size_t>(dep.block) < bt.size())
        ctrl |= bt[static_cast<std::size_t>(dep.block)];
    }
    const bool is_main = fn_idx == 0;
    for (const Inst& inst : bb.insts) {
      switch (inst.op) {
        case Op::kConst:
          s.regs[inst.dst] = ctrl;
          break;
        case Op::kMove:
          s.regs[inst.dst] = s.regs[inst.a] | ctrl;
          break;
        case Op::kLoadGlobal:
          s.regs[inst.dst] = ctx.global_taint[inst.a] | ctrl;
          break;
        case Op::kStoreGlobal:
          ctx.Accum(ctx.global_taint[inst.a], s.regs[inst.b] | ctrl);
          break;
        case Op::kUnOp:
          s.regs[inst.dst] = s.regs[inst.a] | ctrl;
          break;
        case Op::kBinOp:
          s.regs[inst.dst] = s.regs[inst.a] | s.regs[inst.b] | ctrl;
          break;
        case Op::kIndexGet:
          s.regs[inst.dst] = s.regs[inst.a] | s.regs[inst.b] | ctrl;
          break;
        case Op::kIndexSet:
          // The list reg absorbs the element taint. Under-approximates
          // through aliases (both names would need the update); documented
          // in docs/sensescript.md.
          s.regs[inst.a] |= s.regs[inst.b] | s.regs[inst.c] | ctrl;
          break;
        case Op::kListNew: {
          TaintMask mask = ctrl;
          for (std::uint32_t k = 0; k < inst.b; ++k)
            mask |= s.regs[inst.a + k];
          s.regs[inst.dst] = mask;
          break;
        }
        case Op::kForStep:
          s.regs[inst.a] |= s.regs[inst.c] | ctrl;
          break;
        case Op::kCall: {
          TaintMask args = ctrl;
          for (std::uint32_t k = 0; k < inst.b; ++k)
            args |= s.regs[inst.a + k];
          const std::string& name = m.names[inst.imm];
          if (name == PrintSignature().name) {
            ctx.Accum(ctx.sites[{0, inst.line}], args);
            if (inst.dst != kNoReg) s.regs[inst.dst] = ctrl;
            break;
          }
          const auto cand = info.candidates.find(inst.imm);
          if (cand != info.candidates.end()) {
            TaintMask ret = ctrl;
            for (const std::uint32_t callee : cand->second) {
              std::vector<TaintMask>& params = ctx.param_in[callee];
              const std::uint32_t n =
                  std::min<std::uint32_t>(inst.b,
                                          static_cast<std::uint32_t>(
                                              params.size()));
              for (std::uint32_t k = 0; k < n; ++k)
                ctx.Accum(params[k], s.regs[inst.a + k] | ctrl);
              ret |= ctx.ret_taint[callee];
            }
            if (inst.dst != kNoReg) s.regs[inst.dst] = ret | args;
            break;
          }
          const HostSignature* sig = FindHostSignature(name);
          TaintMask result = args;
          if (sig != nullptr && sig->sensor) {
            if (!ctx.has_acquisition) {
              ctx.has_acquisition = true;
              ctx.changed = true;
            }
            result |= SensorBit(*sig->sensor);
            ctx.Accum(ctx.sites[{-1, inst.line}], SensorBit(*sig->sensor));
          }
          if (sig != nullptr && inst.b > 0 && sig->args[0] == ArgType::kList) {
            // List-mutating stdlib (push): the list argument absorbs the
            // taint of everything passed in.
            s.regs[inst.a] |= result;
          }
          if (inst.dst != kNoReg) s.regs[inst.dst] = result;
          break;
        }
        case Op::kReturn: {
          const TaintMask mask =
              (inst.a != kNoReg ? s.regs[inst.a] : 0) | ctrl;
          if (is_main) {
            if (inst.line > 0) ctx.Accum(ctx.sites[{1, inst.line}], mask);
          } else {
            ctx.Accum(ctx.ret_taint[fn_idx], mask);
          }
          break;
        }
        case Op::kBranch:
          ctx.Accum(ctx.branch_taint[fn_idx][static_cast<std::size_t>(block)],
                    s.regs[inst.a] | ctrl);
          break;
        case Op::kForLoop:
          ctx.Accum(ctx.branch_taint[fn_idx][static_cast<std::size_t>(block)],
                    s.regs[inst.a] | s.regs[inst.b] | s.regs[inst.c] | ctrl);
          break;
        case Op::kClearSlots:
          for (Reg r = inst.a; r < inst.a + inst.b; ++r) s.regs[r] = 0;
          break;
        default:
          break;  // kCheckDef, kCheckList, kForCheck, kDefineFn, kJump
      }
    }
  }
};

std::vector<SensorKind> MaskToSensors(TaintMask mask) {
  std::vector<SensorKind> out;
  for (unsigned k = 0; k < static_cast<unsigned>(SensorKind::kCount); ++k) {
    if (mask & (TaintMask{1} << k)) out.push_back(static_cast<SensorKind>(k));
  }
  return out;
}

void RunTaint(const ir::Module& m, const ModuleInfo& info, TaintCtx& ctx) {
  ctx.global_taint.assign(m.global_names.size(), 0);
  ctx.param_in.clear();
  ctx.ret_taint.assign(m.functions.size(), 0);
  ctx.branch_taint.clear();
  for (const ir::Function& fn : m.functions) {
    ctx.param_in.emplace_back(fn.num_params, 0);
    ctx.branch_taint.emplace_back(fn.blocks.size(), 0);
  }
  // Module-level fixpoint: branch/global/param/ret masks feed back into
  // other functions (and earlier blocks), so re-solve until stable. The
  // lattice is tiny (bitmasks), so this converges in a handful of rounds.
  for (int round = 0; round < 64; ++round) {
    ctx.changed = false;
    for (std::size_t f = 0; f < m.functions.size(); ++f) {
      if (m.functions[f].blocks.empty()) continue;
      TaintDomain domain{m, info, ctx, f};
      (void)Solve(m.functions[f], domain, Direction::kForward);
    }
    if (!ctx.changed) break;
  }
}

}  // namespace

// --- analysis driver -------------------------------------------------------

IrAnalysis AnalyzeModule(ir::Module& m) {
  OptimizeReport rep;
  OptimizeModule(m, &rep);

  IrAnalysis out;
  for (const OptimizeReport::NamedUse& u : rep.undef_uses) {
    out.diagnostics.push_back(
        {"SA501", Severity::kError, u.line,
         "'" + u.name + "' is used before any assignment can reach it"});
  }
  for (const OptimizeReport::NamedUse& u : rep.dead_stores) {
    out.diagnostics.push_back(
        {"SA502", Severity::kWarning, u.line,
         "value assigned to '" + u.name + "' is never read"});
  }
  for (const OptimizeReport::FoldedBranch& f : rep.folded_branches) {
    // `while true ... break end` is an idiom, not a bug: stay silent for
    // constant-true while heads.
    if (!f.user_cond || (f.while_head && f.value)) continue;
    out.diagnostics.push_back(
        {"SA503", Severity::kWarning, f.line,
         std::string("condition is always ") + (f.value ? "true" : "false")});
  }
  for (const int line : rep.unreachable_lines) {
    out.diagnostics.push_back(
        {"SA504", Severity::kWarning, line,
         "statement is unreachable (a condition is constant)"});
  }

  const ModuleInfo info = ComputeModuleInfo(m);
  TaintCtx taint;
  RunTaint(m, info, taint);
  bool any_output = false;
  bool any_tainted_output = false;
  int first_output_line = 0;
  for (const auto& [key, mask] : taint.sites) {
    FlowSite site;
    site.kind = key.first == -1  ? FlowSite::Kind::kAcquire
                : key.first == 0 ? FlowSite::Kind::kPrint
                                 : FlowSite::Kind::kReturn;
    site.line = key.second;
    site.sensors = MaskToSensors(mask);
    if (site.kind != FlowSite::Kind::kAcquire) {
      any_output = true;
      if (mask != 0) any_tainted_output = true;
      if (first_output_line == 0 || site.line < first_output_line)
        first_output_line = site.line;
    }
    out.flow.sites.push_back(std::move(site));
  }
  Canonicalize(out.flow);
  if (taint.has_acquisition && any_output && !any_tainted_output) {
    out.diagnostics.push_back(
        {"SA505", Severity::kWarning, first_output_line,
         "script acquires sensor data but no output depends on it"});
  }
  SortAndDedupe(out.diagnostics);
  return out;
}

}  // namespace sor::script::analysis
