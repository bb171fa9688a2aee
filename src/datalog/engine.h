#ifndef GFOMQ_DATALOG_ENGINE_H_
#define GFOMQ_DATALOG_ENGINE_H_

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "datalog/program.h"
#include "instance/homomorphism.h"
#include "instance/instance.h"

namespace gfomq {

/// Statistics of one bottom-up evaluation (reset at the start of each
/// saturation; a GoalTuples cache hit leaves them untouched).
struct DatalogStats {
  uint64_t iterations = 0;        // semi-naive rounds
  uint64_t derived_facts = 0;     // facts added beyond the input
  uint64_t wall_micros = 0;
  uint64_t delta_facts = 0;       // pivot delta facts processed
  uint64_t rule_attempts = 0;     // (rule, pivot, delta-fact) probes
  uint64_t rules_dispatched = 0;  // rule×round combinations actually fired
  uint64_t rules_skipped = 0;     // rule×round combinations pruned because
                                  // no body relation occurred in the delta
  MatchStats match;               // aggregated matcher counters
  std::vector<uint64_t> per_rule_firings;  // head tuples produced, per rule
};

/// Which evaluation strategy to run; kNaive is the pre-index reference
/// (full-scan matcher, every rule tried against every delta fact) retained
/// for differential tests and before/after benches.
enum class DatalogEvalMode { kIndexed, kNaive };

/// Semi-naive bottom-up evaluation of Datalog(≠) programs. The indexed
/// mode dispatches each round only to rules whose body mentions a relation
/// present in the delta (body-relation -> (rule, pivot) map built once per
/// engine, each entry carrying its precomputed non-pivot pattern) and
/// matches the non-pivot body against the instance indexes. The same
/// dispatch drives DRed's overdeletion; a head-relation -> rules index
/// drives its one-step rederivation.
/// Engines are not thread-safe; use one per thread.
class DatalogEngine {
 public:
  explicit DatalogEngine(const DatalogProgram& program,
                         DatalogEvalMode mode = DatalogEvalMode::kIndexed);

  /// Computes the fixpoint: the input plus all derived facts.
  Instance Evaluate(const Instance& input);

  /// Tuples of the goal relation in the fixpoint (empty set if no goal).
  /// The last fixpoint is cached: a repeated call on an unchanged input
  /// (or an unmutated copy of it) reuses it instead of re-saturating. The
  /// warm probe is an O(1) Instance::revision() compare — never a fact-set
  /// scan; the old SameDatabase deep compare survives as a debug assert.
  std::set<std::vector<ElemId>> GoalTuples(const Instance& input);

  /// Incremental-view maintenance entry point (the serving sessions):
  /// continues a previously saturated fixpoint in place after `added`
  /// facts were inserted into `db`, running semi-naive rounds seeded with
  /// exactly that delta. `db` must already contain the added facts.
  /// Stats accumulate on top of the last evaluation (no reset).
  void SaturateDelta(Instance* db, const std::vector<Fact>& added);

  /// DRed overdeletion: the set of facts in `db` (a fixpoint of the
  /// program) transitively derivable through at least one fact of
  /// `deleted` — the standard over-approximation of what a retraction can
  /// invalidate. Facts present in `base` (the surviving external facts)
  /// are never included: they hold regardless of derivations. `deleted`
  /// facts themselves are included when still present in `db`.
  std::set<Fact> OverdeleteClosure(const Instance& db,
                                   const std::vector<Fact>& deleted,
                                   const Instance& base);

  /// DRed rederivation, one backward step: the facts of `overdeleted`
  /// (absent from `db`, the view after overdeletion) that some rule
  /// derives in one step from `db` — the head is bound to the fact and the
  /// body matched against `db`. Adding these and running SaturateDelta
  /// seeded with them (plus any newly asserted facts) restores exactly
  /// the from-scratch fixpoint: every firing whose body avoids the seeds
  /// already had its head in the view or among the rederived facts.
  /// Cost is proportional to the overdeleted set, not to the view.
  std::vector<Fact> Rederive(const Instance& db,
                             const std::set<Fact>& overdeleted);

  const DatalogStats& stats() const { return stats_; }

  /// Number of saturations actually run / GoalTuples calls answered from
  /// the cache. Observability hooks for the caching contract.
  uint64_t evaluations() const { return evaluations_; }
  uint64_t goal_cache_hits() const { return goal_cache_hits_; }

 private:
  Instance EvaluateIndexed(const Instance& input);
  Instance EvaluateNaive(const Instance& input);
  /// The shared semi-naive loop: saturates `db` in place, seeded with
  /// `delta` (facts grouped by relation, already present in `db`).
  void RunSemiNaive(Instance* db,
                    std::map<uint32_t, std::vector<Fact>> delta);
  /// Fires every (rule, pivot) that `delta` dispatches: the pivot atom is
  /// bound to each delta fact of its relation and the rest of the body is
  /// matched in `db`; `on_head(rule index, head fact)` sees every
  /// ≠-respecting firing. Shared by RunSemiNaive and OverdeleteClosure.
  template <typename OnHead>
  void FireDelta(const std::map<uint32_t, std::vector<Fact>>& delta,
                 const Instance& db, OnHead on_head);

  /// One dispatch entry: a rule, the body position bound to the delta
  /// fact, and the remaining body atoms as a matcher pattern.
  struct PivotPlan {
    size_t rule;
    size_t pivot;
    std::vector<PatternAtom> rest;
  };

  const DatalogProgram& program_;
  DatalogEvalMode mode_;
  // Body-relation -> pivot plans (built once, in the constructor).
  std::map<uint32_t, std::vector<PivotPlan>> dispatch_;
  // Head-relation -> rule indices, with each rule's full body pattern.
  std::map<uint32_t, std::vector<size_t>> rules_by_head_;
  std::vector<std::vector<PatternAtom>> bodies_;
  DatalogStats stats_;
  uint64_t evaluations_ = 0;
  uint64_t goal_cache_hits_ = 0;
  // Last (input, fixpoint) pair, for the GoalTuples cache.
  std::optional<Instance> cached_input_;
  std::optional<Instance> cached_output_;
};

}  // namespace gfomq

#endif  // GFOMQ_DATALOG_ENGINE_H_
