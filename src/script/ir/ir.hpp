// SenseScript dataflow IR.
//
// A parsed Program lowers (src/script/ir/lower.cpp) into one ir::Function
// per script function plus a main function, each a control-flow graph of
// basic blocks over a flat frame of value slots. Named variables are
// resolved to frame slots at lowering time — the IR has no name lookups on
// the hot path — and every instruction carries the source line of the AST
// node it came from so runtime errors and analysis diagnostics stay
// line-addressed.
//
// The IR serves two consumers:
//   * the analysis passes in src/script/analysis/ (worklist dataflow over
//     the CFG: definite assignment, constant propagation, liveness,
//     sensor taint), which annotate and optimize it, and
//   * the IR executor (src/script/ir/exec.cpp), the phone's only script
//     executor, held bit for bit to the AST walker the tests keep as their
//     oracle (tests/ast_oracle.cpp).
//
// Steps count AST evaluations: each is charged to one instruction, whose
// `ticks` the executor retires before running it. The optimizer hands a
// deleted instruction's ticks on, and ticks merge only within one source
// line, so a budget overrun names the line of the node that overran it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "script/value.hpp"

namespace sor::script::ir {

// Frame-slot index. Slots [0, num_named) hold named locals/params (one per
// lexically distinct declaration); the rest are expression temporaries.
using Reg = std::uint32_t;
inline constexpr Reg kNoReg = 0xffffffffu;

enum class Op : std::uint8_t {
  kConst,        // dst = consts[imm]
  kMove,         // dst = reg[a]
  kCheckDef,     // error "undefined variable" unless reg[a] was assigned
  kClearSlots,   // mark slots [a, a+b) unassigned (fresh block scope)
  kLoadGlobal,   // dst = globals[a]; error if unassigned
  kStoreGlobal,  // globals[a] = reg[b]
  kUnOp,         // dst = un_op reg[a]
  kBinOp,        // dst = reg[a] bin_op reg[b]
  kCheckList,    // error "cannot index a <type>" unless reg[a] is a list
  kIndexGet,     // dst = reg[a][reg[b]]        (1-based, bounds-checked)
  kIndexSet,     // reg[a][reg[b]] = reg[c]     (index size+1 appends)
  kListNew,      // dst = {reg[a], ..., reg[a+b-1]}
  kCall,         // dst = name(reg[a]..reg[a+b-1]); print/script/host order
  kDefineFn,     // bind function name_idx a to ir function index b
  kForCheck,     // validate for-loop start/stop/step regs (a, b, c)
  kForLoop,      // if (reg[c]>0 ? reg[a]<=reg[b] : reg[a]>=reg[b]) goto then
  kForStep,      // reg[a] = reg[a] + reg[c]  (numeric, no type checks)
  kJump,         // goto then_block
  kBranch,       // if truthy(reg[a]) goto then_block else else_block
  kReturn,       // return reg[a] (kNoReg = nil) from the current frame
  kTick,         // no-op that only retires its ticks
};

[[nodiscard]] const char* to_string(Op op);

// `sub` for kMove / kStoreGlobal marks stores that implement a source-level
// assignment (for the dead-store diagnostic); for kUnOp / kBinOp it holds
// the operator enum, and for kBranch it is 1 when the condition came from a
// source `if`/`while` (0 for compiler-introduced and/or branches).
inline constexpr std::uint8_t kStoreUser = 1;  // source assignment
inline constexpr std::uint8_t kStorePure = 2;  // RHS had no calls
inline constexpr std::uint8_t kStoreDecl = 4;  // came from a `local`

// Most AST ticks one instruction can carry; more take a kTick carrier.
inline constexpr std::uint32_t kMaxTicks = 0xffff;

struct Inst {
  Op op;
  std::uint8_t sub = 0;   // BinOp / UnOp enum value for kBinOp / kUnOp
  std::uint16_t ticks = 0;  // AST evaluations retired before this runs
  std::int32_t line = 0;  // source line of the originating AST node
  Reg dst = kNoReg;
  Reg a = kNoReg;
  Reg b = kNoReg;
  Reg c = kNoReg;
  std::uint32_t imm = 0;       // const index / name index / arg count
  std::int32_t then_block = -1;
  std::int32_t else_block = -1;
};
// `ticks` fits the padding after `sub`: every task keeps its module
// resident, so the instruction must not grow.
static_assert(sizeof(Inst) == 36);

struct BasicBlock {
  std::vector<Inst> insts;
  // Successor block ids, derived from the terminator (empty for return
  // blocks). Kept alongside for the dataflow engine's worklist.
  std::vector<int> succs;
  std::vector<int> preds;
  // Control context: the (block, cond reg) pairs of every structured
  // branch this block is control-dependent on, innermost last. Recorded at
  // lowering (the lowerer knows the structure) and consumed by the taint
  // pass for implicit-flow tracking.
  struct CtrlDep {
    int block;
    Reg cond;
  };
  std::vector<CtrlDep> ctrl_deps;
};

// Loop metadata recorded at lowering, so constant folding can tell a
// while-loop test (SA503 stays silent on `while true`) from an `if`.
struct LoopInfo {
  enum class Kind : std::uint8_t { kWhile, kNumericFor };
  Kind kind = Kind::kWhile;
  int body_block = -1;     // first body block
  int exit_block = -1;     // block control reaches when the loop ends
};

struct Function {
  std::string name;           // "" for main
  std::uint32_t num_params = 0;
  std::uint32_t num_named = 0;  // named slots (params first)
  std::uint32_t num_regs = 0;   // total frame size incl. temporaries
  std::vector<BasicBlock> blocks;  // block 0 is the entry
  std::vector<LoopInfo> loops;
  int def_line = 0;  // line of the `function` statement (0 for main)
};

struct Module {
  std::vector<Function> functions;  // [0] = main
  std::vector<Value> consts;
  // Interned names: global variables, called functions, defined functions.
  std::vector<std::string> names;
  // Global slot name indices: globals[i] is named names[global_names[i]].
  std::vector<std::uint32_t> global_names;
};

// Recompute succs/preds from terminators (used after passes edit the CFG).
void RebuildEdges(Function& fn);

// Human-readable CFG dump (sor lint --ir-dump).
[[nodiscard]] std::string Dump(const Module& m);

}  // namespace sor::script::ir
