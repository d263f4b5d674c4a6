#include "script/ir/ir.hpp"

#include <algorithm>

#include "script/ast.hpp"

namespace sor::script::ir {

const char* to_string(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kMove: return "move";
    case Op::kCheckDef: return "checkdef";
    case Op::kClearSlots: return "clearslots";
    case Op::kLoadGlobal: return "loadglobal";
    case Op::kStoreGlobal: return "storeglobal";
    case Op::kUnOp: return "unop";
    case Op::kBinOp: return "binop";
    case Op::kCheckList: return "checklist";
    case Op::kIndexGet: return "indexget";
    case Op::kIndexSet: return "indexset";
    case Op::kListNew: return "listnew";
    case Op::kCall: return "call";
    case Op::kDefineFn: return "definefn";
    case Op::kForCheck: return "forcheck";
    case Op::kForLoop: return "forloop";
    case Op::kForStep: return "forstep";
    case Op::kJump: return "jump";
    case Op::kBranch: return "branch";
    case Op::kReturn: return "return";
    case Op::kTick: return "tick";
  }
  return "?";
}

namespace {

const char* BinOpName(std::uint8_t sub) {
  switch (static_cast<BinOp>(sub)) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kConcat: return "..";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "~=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
  }
  return "?";
}

const char* UnOpName(std::uint8_t sub) {
  switch (static_cast<UnOp>(sub)) {
    case UnOp::kNeg: return "-";
    case UnOp::kNot: return "not";
    case UnOp::kLen: return "#";
  }
  return "?";
}

std::string RegName(Reg r) {
  if (r == kNoReg) return "_";
  return "r" + std::to_string(r);
}

}  // namespace

void RebuildEdges(Function& fn) {
  for (BasicBlock& b : fn.blocks) {
    b.succs.clear();
    b.preds.clear();
  }
  for (std::size_t i = 0; i < fn.blocks.size(); ++i) {
    BasicBlock& b = fn.blocks[i];
    if (b.insts.empty()) continue;
    const Inst& last = b.insts.back();
    switch (last.op) {
      case Op::kJump:
        b.succs.push_back(last.then_block);
        break;
      case Op::kBranch:
      case Op::kForLoop:
        b.succs.push_back(last.then_block);
        if (last.else_block != last.then_block)
          b.succs.push_back(last.else_block);
        break;
      case Op::kReturn:
        break;
      default:
        // Non-terminated blocks only exist transiently inside passes.
        break;
    }
  }
  for (std::size_t i = 0; i < fn.blocks.size(); ++i) {
    for (const int s : fn.blocks[i].succs) {
      if (s >= 0 && static_cast<std::size_t>(s) < fn.blocks.size())
        fn.blocks[static_cast<std::size_t>(s)].preds.push_back(
            static_cast<int>(i));
    }
  }
}

std::string Dump(const Module& m) {
  std::string out;
  auto name_of = [&m](std::uint32_t idx) -> std::string {
    return idx < m.names.size() ? m.names[idx] : "?";
  };
  for (std::size_t f = 0; f < m.functions.size(); ++f) {
    const Function& fn = m.functions[f];
    out += "function ";
    out += (f == 0 ? "<main>" : fn.name);
    out += " (params=" + std::to_string(fn.num_params) +
           " named=" + std::to_string(fn.num_named) +
           " regs=" + std::to_string(fn.num_regs) + ")\n";
    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      const BasicBlock& b = fn.blocks[bi];
      out += "  b" + std::to_string(bi) + ":";
      if (!b.preds.empty()) {
        out += "  ; preds";
        for (const int p : b.preds) out += " b" + std::to_string(p);
      }
      out += "\n";
      for (const Inst& inst : b.insts) {
        out += "    ";
        switch (inst.op) {
          case Op::kConst: {
            const Value& cv = m.consts[inst.imm];
            out += RegName(inst.dst) + " = const ";
            if (cv.is_string()) {
              out += "\"" + cv.as_string() + "\"";
            } else {
              out += cv.ToDisplayString();
            }
            break;
          }
          case Op::kMove:
            out += RegName(inst.dst) + " = " + RegName(inst.a);
            if ((inst.sub & kStoreUser) != 0)
              out += "  ; store '" + name_of(inst.imm) + "'";
            break;
          case Op::kCheckDef:
            out += "checkdef " + RegName(inst.a) + " '" + name_of(inst.imm) +
                   "'";
            break;
          case Op::kClearSlots:
            out += "clearslots [" + std::to_string(inst.a) + ", " +
                   std::to_string(inst.a + inst.b) + ")";
            break;
          case Op::kLoadGlobal:
            out += RegName(inst.dst) + " = global '" +
                   name_of(m.global_names[inst.a]) + "'";
            break;
          case Op::kStoreGlobal:
            out += "global '" + name_of(m.global_names[inst.a]) +
                   "' = " + RegName(inst.b);
            break;
          case Op::kUnOp:
            out += RegName(inst.dst) + " = " + UnOpName(inst.sub) + " " +
                   RegName(inst.a);
            break;
          case Op::kBinOp:
            out += RegName(inst.dst) + " = " + RegName(inst.a) + " " +
                   BinOpName(inst.sub) + " " + RegName(inst.b);
            break;
          case Op::kCheckList:
            out += "checklist " + RegName(inst.a);
            break;
          case Op::kIndexGet:
            out += RegName(inst.dst) + " = " + RegName(inst.a) + "[" +
                   RegName(inst.b) + "]";
            break;
          case Op::kIndexSet:
            out += RegName(inst.a) + "[" + RegName(inst.b) +
                   "] = " + RegName(inst.c);
            break;
          case Op::kListNew:
            out += RegName(inst.dst) + " = list(" + RegName(inst.a) + " x" +
                   std::to_string(inst.b) + ")";
            break;
          case Op::kCall:
            out += RegName(inst.dst) + " = " + name_of(inst.imm) + "(" +
                   RegName(inst.a) + " x" + std::to_string(inst.b) + ")";
            break;
          case Op::kDefineFn:
            out += "definefn '" + name_of(inst.a) + "' -> f" +
                   std::to_string(inst.b);
            break;
          case Op::kForCheck:
            out += "forcheck " + RegName(inst.a) + ", " + RegName(inst.b) +
                   ", " + RegName(inst.c);
            break;
          case Op::kForLoop:
            out += "forloop " + RegName(inst.a) + " to " + RegName(inst.b) +
                   " step " + RegName(inst.c) + " -> b" +
                   std::to_string(inst.then_block) + " else b" +
                   std::to_string(inst.else_block);
            break;
          case Op::kForStep:
            out += "forstep " + RegName(inst.a) + " += " + RegName(inst.c);
            break;
          case Op::kJump:
            out += "jump b" + std::to_string(inst.then_block);
            break;
          case Op::kBranch:
            out += "branch " + RegName(inst.a) + " -> b" +
                   std::to_string(inst.then_block) + " else b" +
                   std::to_string(inst.else_block);
            break;
          case Op::kReturn:
            out += "return " + RegName(inst.a);
            break;
          case Op::kTick:
            out += "tick";
            break;
        }
        out += "  ; line " + std::to_string(inst.line);
        if (inst.ticks != 0) out += " ticks " + std::to_string(inst.ticks);
        out += "\n";
      }
    }
  }
  return out;
}

}  // namespace sor::script::ir
