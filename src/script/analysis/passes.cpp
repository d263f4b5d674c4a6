#include "script/analysis/passes.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <set>

#include "script/analysis/dataflow.hpp"
#include "script/analysis/host_api.hpp"
#include "script/ast.hpp"

namespace sor::script::analysis {
namespace {

using ir::BasicBlock;
using ir::Inst;
using ir::kNoReg;
using ir::Op;
using ir::Reg;

constexpr double kInf = std::numeric_limits<double>::infinity();

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

  bool Join(State& into, const State& from, int) const {
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

  bool Join(State& into, const State& from, int) const {
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
  bool Join(State& into, const State& from, int) const {
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

// --- interval analysis -----------------------------------------------------

namespace {

struct Iv {
  bool bot = true;
  double lo = kInf;
  double hi = -kInf;

  static Iv Full() { return Iv{false, -kInf, kInf}; }
  static Iv Point(double d) { return Iv{false, d, d}; }
  [[nodiscard]] bool IsPoint() const { return !bot && lo == hi; }
};

Iv MakeIv(double lo, double hi) {
  if (std::isnan(lo) || std::isnan(hi)) return Iv::Full();
  return Iv{false, lo, hi};
}

Iv IvAdd(const Iv& a, const Iv& b) {
  if (a.bot || b.bot) return Iv::Full();
  return MakeIv(a.lo + b.lo, a.hi + b.hi);
}

Iv IvSub(const Iv& a, const Iv& b) {
  if (a.bot || b.bot) return Iv::Full();
  return MakeIv(a.lo - b.hi, a.hi - b.lo);
}

Iv IvMul(const Iv& a, const Iv& b) {
  if (a.bot || b.bot) return Iv::Full();
  const double p[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
  double lo = p[0], hi = p[0];
  for (const double v : p) {
    if (std::isnan(v)) return Iv::Full();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return MakeIv(lo, hi);
}

Iv IvNeg(const Iv& a) {
  if (a.bot) return Iv::Full();
  return MakeIv(-a.hi, -a.lo);
}

struct IvState {
  bool reached = false;
  std::vector<Iv> regs;
  std::vector<Iv> globals;
};

struct IvDomain {
  using State = IvState;
  const ir::Module& m;
  const ModuleInfo& info;
  // Widening: after this many changing joins into a block, changing bounds
  // jump straight to infinity so loops converge.
  static constexpr int kWidenAfter = 8;
  mutable std::vector<int> join_counts;

  State Boundary(const ir::Function& fn) const {
    State s;
    s.reached = true;
    s.regs.assign(fn.num_regs, Iv::Full());
    s.globals.assign(m.global_names.size(), Iv::Full());
    return s;
  }
  State Bottom(const ir::Function&) const { return {}; }

  static bool JoinIv(Iv& into, const Iv& from, bool widen) {
    if (from.bot) return false;
    if (into.bot) {
      into = from;
      return true;
    }
    bool changed = false;
    if (from.lo < into.lo) {
      into.lo = widen ? -kInf : from.lo;
      changed = true;
    }
    if (from.hi > into.hi) {
      into.hi = widen ? kInf : from.hi;
      changed = true;
    }
    return changed;
  }

  bool Join(State& into, const State& from, int target_block) const {
    if (!from.reached) return false;
    if (!into.reached) {
      into = from;
      return true;
    }
    if (join_counts.size() <= static_cast<std::size_t>(target_block))
      join_counts.resize(static_cast<std::size_t>(target_block) + 1, 0);
    const bool widen =
        join_counts[static_cast<std::size_t>(target_block)] > kWidenAfter;
    bool changed = false;
    for (std::size_t i = 0; i < into.regs.size(); ++i)
      changed |= JoinIv(into.regs[i], from.regs[i], widen);
    for (std::size_t i = 0; i < into.globals.size(); ++i)
      changed |= JoinIv(into.globals[i], from.globals[i], widen);
    if (changed) ++join_counts[static_cast<std::size_t>(target_block)];
    return changed;
  }

  void Apply(const Inst& inst, State& s) const {
    switch (inst.op) {
      case Op::kConst: {
        const Value& v = m.consts[inst.imm];
        s.regs[inst.dst] =
            v.is_number() ? Iv::Point(v.as_number()) : Iv::Full();
        break;
      }
      case Op::kMove:
        s.regs[inst.dst] = s.regs[inst.a];
        break;
      case Op::kLoadGlobal:
        s.regs[inst.dst] = s.globals[inst.a];
        break;
      case Op::kStoreGlobal:
        s.globals[inst.a] = s.regs[inst.b];
        break;
      case Op::kUnOp:
        switch (static_cast<UnOp>(inst.sub)) {
          case UnOp::kNeg:
            s.regs[inst.dst] = IvNeg(s.regs[inst.a]);
            break;
          case UnOp::kLen:
            s.regs[inst.dst] = MakeIv(0.0, kInf);
            break;
          default:
            s.regs[inst.dst] = Iv::Full();
            break;
        }
        break;
      case Op::kBinOp:
        switch (static_cast<BinOp>(inst.sub)) {
          case BinOp::kAdd:
            s.regs[inst.dst] = IvAdd(s.regs[inst.a], s.regs[inst.b]);
            break;
          case BinOp::kSub:
            s.regs[inst.dst] = IvSub(s.regs[inst.a], s.regs[inst.b]);
            break;
          case BinOp::kMul:
            s.regs[inst.dst] = IvMul(s.regs[inst.a], s.regs[inst.b]);
            break;
          default:
            s.regs[inst.dst] = Iv::Full();
            break;
        }
        break;
      case Op::kForStep:
        s.regs[inst.a] = IvAdd(s.regs[inst.a], s.regs[inst.c]);
        break;
      case Op::kCall: {
        if (inst.dst != kNoReg) s.regs[inst.dst] = Iv::Full();
        const auto it = info.candidates.find(inst.imm);
        if (it != info.candidates.end()) {
          for (const std::uint32_t callee : it->second) {
            for (std::size_t g = 0; g < s.globals.size(); ++g) {
              if (info.global_writes[callee][g]) s.globals[g] = Iv::Full();
            }
          }
        }
        break;
      }
      case Op::kClearSlots:
        for (Reg r = inst.a; r < inst.a + inst.b; ++r)
          s.regs[r] = Iv::Full();
        break;
      default:
        if (HasDst(inst.op) && inst.dst != kNoReg)
          s.regs[inst.dst] = Iv::Full();
        break;
    }
  }

  void Transfer(const ir::Function& fn, int block, State& s) const {
    if (!s.reached) return;
    for (const Inst& inst :
         fn.blocks[static_cast<std::size_t>(block)].insts)
      Apply(inst, s);
  }
};

// State after executing `block` starting from its solved entry state.
IvState StateAtBlockExit(const ir::Function& fn, const IvDomain& domain,
                         const DataflowResult<IvDomain>& df, int block) {
  IvState s = df.in[static_cast<std::size_t>(block)];
  domain.Transfer(fn, block, s);
  return s;
}

// Blocks reachable from `from` without expanding `stop1`/`stop2`.
std::set<int> BlocksReachableAvoiding(const ir::Function& fn, int from,
                                      int stop1, int stop2) {
  std::set<int> seen;
  if (from < 0) return seen;
  std::vector<int> work{from};
  seen.insert(from);
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    if (b == stop1 || b == stop2) continue;
    for (const int s : fn.blocks[static_cast<std::size_t>(b)].succs) {
      if (seen.insert(s).second) work.push_back(s);
    }
  }
  return seen;
}

// The register that `r` holds at instruction `upto` of `block`, resolved
// through kMove chains within the block. Returns the original reg when no
// in-block definition is found (i.e. a named slot or an earlier block's
// temp).
const Inst* DefiningInst(const BasicBlock& block, std::size_t upto, Reg r) {
  for (std::size_t i = upto; i-- > 0;) {
    const Inst& inst = block.insts[i];
    if (HasDst(inst.op) && inst.dst == r) return &inst;
  }
  return nullptr;
}

struct IndVar {
  bool is_global = false;
  Reg slot = kNoReg;  // named reg, or global index
};

// Classify a comparison operand as "the variable var" (load of a named slot
// or of a global, within the branch block) or not.
std::optional<IndVar> ClassifyVarOperand(const ir::Function& fn,
                                         const BasicBlock& block,
                                         std::size_t cmp_index, Reg r) {
  if (r < fn.num_named) return IndVar{false, r};
  const Inst* def = DefiningInst(block, cmp_index, r);
  if (def != nullptr && def->op == Op::kLoadGlobal)
    return IndVar{true, def->a};
  if (def != nullptr && def->op == Op::kMove && def->a < fn.num_named)
    return IndVar{false, def->a};
  return std::nullopt;
}

// While-loop trip bound via simple induction-variable detection:
//   while var <op> limit do ... var = var +/- k ... end
// with exactly one unconditional store to var per iteration and a constant
// step. Returns nullopt when the pattern does not hold.
std::optional<double> WhileTripBound(const ir::Function& fn,
                                     const ModuleInfo& info,
                                     const IvDomain& domain,
                                     const DataflowResult<IvDomain>& df,
                                     const ir::LoopInfo& loop) {
  // Find the conditional branch that enters the body or exits the loop.
  int branch_block = -1;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto& insts = fn.blocks[b].insts;
    if (insts.empty()) continue;
    const Inst& last = insts.back();
    if (last.op == Op::kBranch && last.sub == 1 &&
        last.then_block == loop.body_block &&
        last.else_block == loop.exit_block) {
      branch_block = static_cast<int>(b);
      break;
    }
  }
  if (branch_block < 0) return std::nullopt;
  const BasicBlock& bb = fn.blocks[static_cast<std::size_t>(branch_block)];
  const Reg cond = bb.insts.back().a;

  // The condition must be a single comparison var <op> limit.
  std::size_t cmp_index = bb.insts.size();
  const Inst* cmp = nullptr;
  for (std::size_t i = bb.insts.size() - 1; i-- > 0;) {
    if (HasDst(bb.insts[i].op) && bb.insts[i].dst == cond) {
      cmp = &bb.insts[i];
      cmp_index = i;
      break;
    }
  }
  if (cmp == nullptr || cmp->op != Op::kBinOp) return std::nullopt;
  const auto op = static_cast<BinOp>(cmp->sub);
  if (op != BinOp::kLt && op != BinOp::kLe && op != BinOp::kGt &&
      op != BinOp::kGe)
    return std::nullopt;

  // One side is the induction variable, the other the limit.
  const std::optional<IndVar> lhs =
      ClassifyVarOperand(fn, bb, cmp_index, cmp->a);
  const std::optional<IndVar> rhs =
      ClassifyVarOperand(fn, bb, cmp_index, cmp->b);
  // Try the left side as var first, then the (mirrored) right side.
  for (int side = 0; side < 2; ++side) {
    const std::optional<IndVar>& var_opt = side == 0 ? lhs : rhs;
    if (!var_opt) continue;
    const IndVar var = *var_opt;
    const Reg limit_reg = side == 0 ? cmp->b : cmp->a;
    // Mirror the comparison when var is on the right: limit < var == var > limit.
    BinOp dir = op;
    if (side == 1) {
      dir = op == BinOp::kLt   ? BinOp::kGt
            : op == BinOp::kLe ? BinOp::kGe
            : op == BinOp::kGt ? BinOp::kLt
                               : BinOp::kLe;
    }

    // All loop blocks: reachable from the head without leaving via exit.
    const std::set<int> loop_blocks =
        BlocksReachableAvoiding(fn, loop.head_block, loop.exit_block, -1);

    // Exactly one store to var inside the loop, and no call that may write
    // it (globals only; named slots cannot be written by callees).
    int store_block = -1;
    std::size_t store_index = 0;
    int store_count = 0;
    bool hazard = false;
    for (const int b : loop_blocks) {
      const auto& insts = fn.blocks[static_cast<std::size_t>(b)].insts;
      for (std::size_t i = 0; i < insts.size(); ++i) {
        const Inst& inst = insts[i];
        const bool writes_var =
            var.is_global
                ? (inst.op == Op::kStoreGlobal && inst.a == var.slot)
                : ((HasDst(inst.op) && inst.dst == var.slot) ||
                   (inst.op == Op::kForStep && inst.a == var.slot));
        if (writes_var) {
          ++store_count;
          store_block = b;
          store_index = i;
        }
        if (!var.is_global &&
            inst.op == Op::kClearSlots && var.slot >= inst.a &&
            var.slot < inst.a + inst.b)
          hazard = true;
        if (var.is_global && inst.op == Op::kCall) {
          const auto it = info.candidates.find(inst.imm);
          if (it != info.candidates.end()) {
            for (const std::uint32_t callee : it->second)
              if (info.global_writes[callee][var.slot]) hazard = true;
          }
        }
      }
    }
    if (hazard || store_count != 1 || store_block < 0) continue;

    // The store must run on every body->head path (else an iteration can
    // skip the increment and the bound is unsound).
    if (loop.body_block != store_block) {
      const std::set<int> skip = BlocksReachableAvoiding(
          fn, loop.body_block, store_block, loop.exit_block);
      if (skip.count(loop.head_block) > 0) continue;
    }

    // Pattern-match the stored value: var +/- constant step.
    const BasicBlock& sb = fn.blocks[static_cast<std::size_t>(store_block)];
    const Inst& store = sb.insts[store_index];
    Reg src = kNoReg;
    if (var.is_global && store.op == Op::kStoreGlobal) {
      src = store.b;
    } else if (!var.is_global &&
               (store.op == Op::kMove || store.op == Op::kBinOp)) {
      src = store.op == Op::kMove ? store.a : store.dst;
    } else {
      continue;
    }
    const Inst* add = DefiningInst(sb, store_index, src);
    while (add != nullptr && add->op == Op::kMove)
      add = DefiningInst(sb, store_index, add->a);
    if (add == nullptr || add->op != Op::kBinOp) continue;
    const auto aop = static_cast<BinOp>(add->sub);
    if (aop != BinOp::kAdd && aop != BinOp::kSub) continue;

    const auto IsVar = [&](Reg r) {
      const std::optional<IndVar> c = ClassifyVarOperand(
          fn, sb, static_cast<std::size_t>(add - sb.insts.data()), r);
      return c && c->is_global == var.is_global && c->slot == var.slot;
    };
    // Interval of the non-var operand at the add site.
    IvState at_store = df.in[static_cast<std::size_t>(store_block)];
    const auto add_index = static_cast<std::size_t>(add - sb.insts.data());
    for (std::size_t i = 0; i < add_index; ++i)
      domain.Apply(sb.insts[i], at_store);
    double k = 0.0;
    if (IsVar(add->a)) {
      const Iv kv = at_store.regs[add->b];
      if (!kv.IsPoint()) continue;
      k = aop == BinOp::kAdd ? kv.lo : -kv.lo;
    } else if (aop == BinOp::kAdd && IsVar(add->b)) {
      const Iv kv = at_store.regs[add->a];
      if (!kv.IsPoint()) continue;
      k = kv.lo;
    } else {
      continue;
    }
    if (k == 0.0 || !std::isfinite(k)) continue;

    // Initial value: var at the prehead's exit (before the first test).
    const IvState pre =
        StateAtBlockExit(fn, domain, df, loop.prehead_block);
    if (!pre.reached) return 0.0;
    const Iv v0 = var.is_global ? pre.globals[var.slot] : pre.regs[var.slot];
    // Limit: its interval right before the comparison, at the fixpoint (so
    // a limit that changes inside the loop widens and bails below).
    IvState at_cmp = df.in[static_cast<std::size_t>(branch_block)];
    for (std::size_t i = 0; i < cmp_index; ++i)
      domain.Apply(bb.insts[i], at_cmp);
    const Iv lim = at_cmp.regs[limit_reg];
    if (v0.bot || lim.bot) continue;

    double trips = -1.0;
    if (k > 0.0 && (dir == BinOp::kLt || dir == BinOp::kLe)) {
      const double span = lim.hi - v0.lo;
      if (!std::isfinite(span)) continue;
      trips = dir == BinOp::kLt ? std::ceil(span / k)
                                : std::floor(span / k) + 1.0;
    } else if (k < 0.0 && (dir == BinOp::kGt || dir == BinOp::kGe)) {
      const double span = v0.hi - lim.lo;
      if (!std::isfinite(span)) continue;
      trips = dir == BinOp::kGt ? std::ceil(span / -k)
                                : std::floor(span / -k) + 1.0;
    } else {
      continue;
    }
    if (std::isnan(trips)) continue;
    return std::max(0.0, trips);
  }
  return std::nullopt;
}

void CollectTripBounds(const ir::Module& m, const ModuleInfo& info,
                       std::map<LoopKey, double>& bounds) {
  for (const ir::Function& fn : m.functions) {
    if (fn.blocks.empty()) continue;
    IvDomain domain{m, info, {}};
    const DataflowResult<IvDomain> df =
        Solve(fn, domain, Direction::kForward);
    const std::vector<std::uint8_t> reach = ReachableBlocks(fn);

    const auto Record = [&bounds](int line, int kind, double trips) {
      const LoopKey key{line, kind};
      const auto it = bounds.find(key);
      if (it == bounds.end()) {
        bounds[key] = trips;
      } else {
        it->second = std::max(it->second, trips);
      }
    };

    for (const ir::LoopInfo& loop : fn.loops) {
      const int kind = loop.kind == ir::LoopInfo::Kind::kWhile ? 0 : 1;
      if (loop.head_block < 0 ||
          !reach[static_cast<std::size_t>(loop.head_block)] ||
          (loop.body_block >= 0 &&
           !reach[static_cast<std::size_t>(loop.body_block)])) {
        Record(loop.line, kind, 0.0);
        continue;
      }
      if (loop.kind == ir::LoopInfo::Kind::kNumericFor) {
        const IvState pre =
            StateAtBlockExit(fn, domain, df, loop.prehead_block);
        if (!pre.reached) {
          Record(loop.line, kind, 0.0);
          continue;
        }
        const Iv start = pre.regs[loop.counter];
        const Iv stop = pre.regs[loop.stop];
        const Iv step = pre.regs[loop.step];
        if (start.bot || stop.bot || step.bot) continue;
        double trips = -1.0;
        if (step.lo > 0.0 && std::isfinite(stop.hi) &&
            std::isfinite(start.lo) && std::isfinite(step.lo)) {
          trips = std::floor((stop.hi - start.lo) / step.lo) + 1.0;
        } else if (step.hi < 0.0 && std::isfinite(start.hi) &&
                   std::isfinite(stop.lo) && std::isfinite(step.hi)) {
          trips = std::floor((start.hi - stop.lo) / -step.hi) + 1.0;
        } else {
          continue;
        }
        if (std::isnan(trips)) continue;
        Record(loop.line, kind, std::max(0.0, trips));
      } else {
        const std::optional<double> trips =
            WhileTripBound(fn, info, domain, df, loop);
        if (trips) Record(loop.line, kind, *trips);
      }
    }
  }
}

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

  bool Join(State& into, const State& from, int) const {
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
          if (name == "print") {
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

IrAnalysis AnalyzeModule(ir::Module& m, const IrAnalysisOptions&) {
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
  CollectTripBounds(m, info, out.trip_bounds);

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
