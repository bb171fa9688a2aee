#ifndef GFOMQ_REASONER_GROUND_H_
#define GFOMQ_REASONER_GROUND_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "instance/instance.h"
#include "logic/rules.h"
#include "query/cq.h"
#include "reasoner/tableau.h"

namespace gfomq {

/// Query/answer pairs a model must not satisfy: the model answers none of
/// q1(t1), ..., qk(tk). An empty list asks for any model (consistency).
using AvoidList = std::vector<std::pair<Ucq, std::vector<ElemId>>>;

/// Grounds "rules ∧ D ∧ ¬q1(t1) ∧ ... ∧ ¬qk(tk)" over a finite domain — the
/// elements of D plus a number of fresh nulls — into CNF and solves with the
/// embedded SAT solver. A satisfying assignment is a finite model, i.e. a
/// countermodel to every avoided pair. Since GF ∧ ¬UCQ sits inside the
/// guarded negation fragment, which has the finite-model property, iterating
/// the domain size makes countermodel search complete in the limit.
class GroundSolver {
 public:
  explicit GroundSolver(const RuleSet& rules) : rules_(rules) {}

  /// Searches for a model of `input` and the rules over the domain
  /// dom(input) + extra_nulls that answers none of the `avoid` pairs.
  /// Returns the model, or nullopt with `certainty` = kNo when provably
  /// none exists at this size, kUnknown when the SAT solver ran out of
  /// conflicts (max_conflicts, 0 = unlimited).
  std::optional<Instance> FindModelAtSize(const Instance& input,
                                          uint32_t extra_nulls,
                                          const AvoidList& avoid,
                                          Certainty* certainty,
                                          uint64_t max_conflicts = 0);

  /// Iterative-deepening model search over 0..max_extra_nulls extra nulls.
  /// kYes = a finite model of the rules and `input` answering none of the
  /// `avoid` pairs exists (stored in `model` when non-null): consistency
  /// with an empty list, non-entailment of every pair otherwise. kNo is
  /// never returned — absence at bounded size is not a proof — so every
  /// other outcome is kUnknown.
  Certainty FindModel(const Instance& input, const AvoidList& avoid,
                      uint32_t max_extra_nulls,
                      std::optional<Instance>* model = nullptr,
                      uint64_t max_conflicts = 0);

 private:
  const RuleSet& rules_;
};

}  // namespace gfomq

#endif  // GFOMQ_REASONER_GROUND_H_
