#include "src/passes/jump_threading.h"

#include <map>
#include <optional>
#include <vector>

#include "src/ir/cfg.h"
#include "src/ir/dominators.h"
#include "src/ir/fold.h"

namespace overify {

namespace {

// Knowledge about a value along one CFG edge: either "the i1 value is K" or
// "icmp(pred, x, C) evaluated to K".
struct EdgeFact {
  Value* subject = nullptr;  // the i1 condition value of the source branch
  bool value = false;        // what it is on this edge
};

// Decides `cmp` given that `fact` holds. Handles (a) identical condition
// values and (b) subsumption between integer compares on the same operand
// against constants, e.g. (x < 10) == true implies (x < 20) == true.
std::optional<bool> DecideUnderFact(Value* cond, const EdgeFact& fact) {
  if (cond == fact.subject) {
    return fact.value;
  }
  auto* cmp = DynCast<ICmpInst>(cond);
  auto* known = DynCast<ICmpInst>(fact.subject);
  if (cmp == nullptr || known == nullptr) {
    return std::nullopt;
  }
  if (cmp->lhs() != known->lhs()) {
    return std::nullopt;
  }
  const auto* cmp_const = DynCast<ConstantInt>(cmp->rhs());
  const auto* known_const = DynCast<ConstantInt>(known->rhs());
  if (cmp_const == nullptr || known_const == nullptr) {
    return std::nullopt;
  }
  unsigned bits = cmp->lhs()->type()->bits();

  // Check whether cmp's outcome is the same for every x satisfying
  // (known == fact.value). Sample-based reasoning is unsound; instead use
  // implication via exhaustive predicate casework on the two constants.
  ICmpPredicate kp = fact.value ? known->predicate() : InvertPredicate(known->predicate());
  // Domain of x: {x : kp(x, kc)}. Question: is cp(x, cc) constant over it?
  // We answer for the four order-predicate families by interval reasoning,
  // and for eq/ne via direct substitution.
  uint64_t kc = known_const->value();
  uint64_t cc = cmp_const->value();

  if (kp == ICmpPredicate::kEq) {
    return FoldICmp(cmp->predicate(), bits, kc, cc);
  }

  // Represent the domain as a closed interval in the appropriate
  // (signed/unsigned) number line; mixed-signedness pairs are skipped.
  bool known_signed = IsSignedPredicate(kp);
  bool cmp_signed = IsSignedPredicate(cmp->predicate());
  bool cmp_is_order = cmp->predicate() != ICmpPredicate::kEq &&
                      cmp->predicate() != ICmpPredicate::kNe;
  if (cmp_is_order && known_signed != cmp_signed) {
    return std::nullopt;
  }

  auto to_line = [&](uint64_t raw) -> int64_t {
    return known_signed ? SignExtend(raw, bits) : static_cast<int64_t>(TruncateToWidth(raw, bits));
  };
  int64_t type_min = known_signed ? (bits >= 64 ? INT64_MIN : -(int64_t{1} << (bits - 1))) : 0;
  int64_t type_max;
  if (known_signed) {
    type_max = bits >= 64 ? INT64_MAX : (int64_t{1} << (bits - 1)) - 1;
  } else {
    // For unsigned domains use the value line [0, 2^bits - 1]; at 64 bits
    // the upper bound overflows int64, so skip.
    if (bits >= 64) {
      return std::nullopt;
    }
    type_max = (int64_t{1} << bits) - 1;
  }

  int64_t k = to_line(kc);
  int64_t lo = type_min;
  int64_t hi = type_max;
  switch (kp) {
    case ICmpPredicate::kNe:
      return std::nullopt;  // punctured domain: not an interval
    case ICmpPredicate::kULT:
    case ICmpPredicate::kSLT:
      hi = k - 1;
      break;
    case ICmpPredicate::kULE:
    case ICmpPredicate::kSLE:
      hi = k;
      break;
    case ICmpPredicate::kUGT:
    case ICmpPredicate::kSGT:
      lo = k + 1;
      break;
    case ICmpPredicate::kUGE:
    case ICmpPredicate::kSGE:
      lo = k;
      break;
    default:
      return std::nullopt;
  }
  if (lo > hi) {
    return std::nullopt;  // empty domain: edge is dead; let simplifycfg act
  }

  int64_t c = cmp_signed || !cmp_is_order
                  ? (known_signed ? SignExtend(cc, bits)
                                  : static_cast<int64_t>(TruncateToWidth(cc, bits)))
                  : static_cast<int64_t>(TruncateToWidth(cc, bits));

  auto eval = [&](int64_t x) -> bool {
    switch (cmp->predicate()) {
      case ICmpPredicate::kEq:
        return x == c;
      case ICmpPredicate::kNe:
        return x != c;
      case ICmpPredicate::kULT:
      case ICmpPredicate::kSLT:
        return x < c;
      case ICmpPredicate::kULE:
      case ICmpPredicate::kSLE:
        return x <= c;
      case ICmpPredicate::kUGT:
      case ICmpPredicate::kSGT:
        return x > c;
      case ICmpPredicate::kUGE:
      case ICmpPredicate::kSGE:
        return x >= c;
    }
    return false;
  };

  if (cmp->predicate() == ICmpPredicate::kEq) {
    // Constant over the interval only if the interval misses c entirely
    // (then false) or is the single point c (then true).
    if (c < lo || c > hi) {
      return false;
    }
    if (lo == hi && lo == c) {
      return true;
    }
    return std::nullopt;
  }
  if (cmp->predicate() == ICmpPredicate::kNe) {
    if (c < lo || c > hi) {
      return true;
    }
    if (lo == hi && lo == c) {
      return false;
    }
    return std::nullopt;
  }
  bool at_lo = eval(lo);
  bool at_hi = eval(hi);
  if (at_lo == at_hi) {
    // Order predicates are monotone in x, so equal endpoint outcomes decide
    // the whole interval.
    return at_lo;
  }
  return std::nullopt;
}

struct ThreadAction {
  BasicBlock* pred = nullptr;    // block whose branch gets retargeted
  BasicBlock* via = nullptr;     // the threaded-through block
  BasicBlock* target = nullptr;  // where the edge goes instead
};

std::optional<ThreadAction> FindThread(Function& fn, DominatorTree& dom) {
  auto preds = PredecessorMap(fn);
  for (BasicBlock& via : fn) {
    auto* via_br = DynCast<BranchInst>(via.Terminator());
    if (via_br == nullptr || !via_br->IsConditional()) {
      continue;
    }
    // Threading skips `via` entirely, so it must contain no effectful or
    // value-defining instructions other than phis and its terminator (phi
    // values are resolvable per incoming edge).
    bool only_phis = true;
    for (auto& inst : via) {
      if (inst->opcode() != Opcode::kPhi && !inst->IsTerminator()) {
        only_phis = false;
        break;
      }
    }
    if (!only_phis) {
      continue;
    }
    if (&via == fn.entry()) {
      continue;
    }
    for (BasicBlock* pred : preds[&via]) {
      auto* pred_br = DynCast<BranchInst>(pred->Terminator());
      if (pred_br == nullptr || !pred_br->IsConditional()) {
        continue;
      }
      if (pred_br->true_dest() == pred_br->false_dest()) {
        continue;
      }
      // Resolve via's condition on this edge (through via's phis if needed).
      Value* cond = via_br->condition();
      if (auto* phi = DynCast<PhiInst>(cond)) {
        if (phi->parent() == &via) {
          int index = phi->IncomingIndexFor(pred);
          if (index < 0) {
            continue;
          }
          cond = phi->IncomingValue(static_cast<unsigned>(index));
        }
      }
      // Constant condition on this edge?
      std::optional<bool> decided;
      if (const auto* c = DynCast<ConstantInt>(cond)) {
        decided = !c->IsZero();
      }
      for (int edge = 0; edge < 2 && !decided.has_value(); ++edge) {
        bool via_on_true = (edge == 0);
        BasicBlock* edge_dest = via_on_true ? pred_br->true_dest() : pred_br->false_dest();
        if (edge_dest != &via) {
          continue;
        }
        EdgeFact fact{pred_br->condition(), via_on_true};
        decided = DecideUnderFact(cond, fact);
        if (decided.has_value()) {
          // Only this one edge is decided; remember which by returning now.
          BasicBlock* target = *decided ? via_br->true_dest() : via_br->false_dest();
          // Safety: target's phi values for the via edge must be computable
          // at pred.
          bool safe = true;
          for (PhiInst* phi : target->Phis()) {
            int index = phi->IncomingIndexFor(&via);
            if (index < 0) {
              safe = false;
              break;
            }
            Value* v = phi->IncomingValue(static_cast<unsigned>(index));
            if (auto* via_phi = DynCast<PhiInst>(v)) {
              if (via_phi->parent() == &via) {
                continue;  // resolvable through via's phi
              }
            }
            if (const auto* def = DynCast<Instruction>(v)) {
              if (!dom.IsReachable(def->parent()) || !dom.Dominates(def->parent(), pred)) {
                safe = false;
                break;
              }
            }
          }
          if (!safe) {
            decided.reset();
            continue;
          }
          if (target == &via) {
            decided.reset();
            continue;
          }
          return ThreadAction{pred, &via, target};
        }
      }
      if (decided.has_value()) {
        // Condition constant on all edges from this pred (via phi/constant).
        BasicBlock* target = *decided ? via_br->true_dest() : via_br->false_dest();
        bool safe = true;
        for (PhiInst* phi : target->Phis()) {
          int index = phi->IncomingIndexFor(&via);
          if (index < 0) {
            safe = false;
            break;
          }
          Value* v = phi->IncomingValue(static_cast<unsigned>(index));
          if (auto* via_phi = DynCast<PhiInst>(v)) {
            if (via_phi->parent() == &via) {
              continue;
            }
          }
          if (const auto* def = DynCast<Instruction>(v)) {
            if (!dom.IsReachable(def->parent()) || !dom.Dominates(def->parent(), pred)) {
              safe = false;
              break;
            }
          }
        }
        if (safe && target != &via) {
          return ThreadAction{pred, &via, target};
        }
      }
    }
  }
  return std::nullopt;
}

void ApplyThread(const ThreadAction& action) {
  BasicBlock* pred = action.pred;
  BasicBlock* via = action.via;
  BasicBlock* target = action.target;

  // Fix target phis first: add the new pred edge with the value resolved
  // through via's phis where applicable.
  for (PhiInst* phi : target->Phis()) {
    int via_index = phi->IncomingIndexFor(via);
    OVERIFY_ASSERT(via_index >= 0, "threading target phi lost via entry");
    Value* v = phi->IncomingValue(static_cast<unsigned>(via_index));
    if (auto* via_phi = DynCast<PhiInst>(v)) {
      if (via_phi->parent() == via) {
        int pred_index = via_phi->IncomingIndexFor(pred);
        OVERIFY_ASSERT(pred_index >= 0, "via phi missing pred entry");
        v = via_phi->IncomingValue(static_cast<unsigned>(pred_index));
      }
    }
    if (phi->IncomingIndexFor(pred) < 0) {
      phi->AddIncoming(v, pred);
    }
  }

  // Retarget pred's edge(s) that pointed at via.
  auto* pred_br = Cast<BranchInst>(pred->Terminator());
  if (pred_br->true_dest() == via) {
    pred_br->SetDest(0, target);
  }
  if (pred_br->IsConditional() && pred_br->false_dest() == via) {
    pred_br->SetDest(1, target);
  }

  // via lost pred as predecessor: update its phis.
  for (PhiInst* phi : via->Phis()) {
    int index = phi->IncomingIndexFor(pred);
    if (index >= 0) {
      phi->RemoveIncoming(static_cast<unsigned>(index));
    }
  }
}

}  // namespace

bool JumpThreadingPass::RunOnFunction(Function& fn) {
  bool changed = false;
  // Bounded iteration: each thread removes one edge through `via`.
  for (int round = 0; round < 64; ++round) {
    DominatorTree dom(fn);
    auto action = FindThread(fn, dom);
    if (!action.has_value()) {
      break;
    }
    ApplyThread(*action);
    Count(Counter::kJumpThreadThreaded);
    RemoveUnreachableBlocks(fn);
    changed = true;
  }
  return changed;
}

}  // namespace overify
