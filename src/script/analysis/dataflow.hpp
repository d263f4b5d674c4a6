// Generic worklist dataflow engine over the SenseScript IR CFG.
//
// A pass supplies a lattice through a Domain type:
//
//   struct Domain {
//     using State = ...;                       // per-block-entry fact
//     State Boundary(const ir::Function&);     // entry fact (forward) or
//                                              // exit fact (backward)
//     State Bottom(const ir::Function&);       // identity for join
//     // Merge `from` into `into`; return true if `into` changed.
//     bool Join(State& into, const State& from);
//     void Transfer(const ir::Function&, int block, State&);  // in place
//   };
//
// Solve() iterates blocks in a deterministic round-robin worklist until a
// fixpoint, returning the entry (forward) or exit (backward) state of every
// block. Every domain's lattice has finite height, so no pass widens.
#pragma once

#include <vector>

#include "script/ir/ir.hpp"

namespace sor::script::analysis {

enum class Direction { kForward, kBackward };

template <typename Domain>
struct DataflowResult {
  // in[b]: state at block entry (forward) / block exit (backward).
  std::vector<typename Domain::State> in;
};

template <typename Domain>
DataflowResult<Domain> Solve(const ir::Function& fn, Domain& domain,
                             Direction dir) {
  const std::size_t n = fn.blocks.size();
  DataflowResult<Domain> result;
  result.in.reserve(n);
  for (std::size_t b = 0; b < n; ++b) result.in.push_back(domain.Bottom(fn));

  // Deterministic worklist: a boolean dirty set scanned in block order
  // (forward) or reverse block order (backward). Lowering emits blocks
  // roughly in reverse post-order, so this converges quickly on the
  // reducible CFGs structured lowering produces.
  std::vector<char> dirty(n, 1);
  if (dir == Direction::kForward) {
    if (n > 0) domain.Join(result.in[0], domain.Boundary(fn));
  } else {
    for (std::size_t b = 0; b < n; ++b) {
      if (fn.blocks[b].succs.empty())
        domain.Join(result.in[b], domain.Boundary(fn));
    }
  }

  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = dir == Direction::kForward ? i : n - 1 - i;
      if (!dirty[b]) continue;
      dirty[b] = 0;
      typename Domain::State out = result.in[b];
      domain.Transfer(fn, static_cast<int>(b), out);
      const std::vector<int>& next = dir == Direction::kForward
                                         ? fn.blocks[b].succs
                                         : fn.blocks[b].preds;
      for (const int s : next) {
        if (s < 0 || static_cast<std::size_t>(s) >= n) continue;
        if (domain.Join(result.in[static_cast<std::size_t>(s)], out)) {
          dirty[static_cast<std::size_t>(s)] = 1;
          any = true;
        }
      }
    }
  }
  return result;
}

}  // namespace sor::script::analysis
