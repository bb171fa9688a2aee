#ifndef GFOMQ_REASONER_CERTAIN_H_
#define GFOMQ_REASONER_CERTAIN_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/status.h"
#include "logic/normalize.h"
#include "logic/ontology.h"
#include "query/cq.h"
#include "reasoner/consistency_cache.h"
#include "reasoner/ground.h"
#include "reasoner/tableau.h"

namespace gfomq {

/// Canonical budget fingerprint used in every consistency/entailment cache
/// key. Deliberately EXCLUDES tableau_threads, spawn_cutoff_depth, engine
/// and learn_nogoods: those choose an execution strategy, not a verdict
/// (every engine implements the same complete procedure), so serial,
/// parallel and trail runs of the same probe share cache entries.
/// `ground_extra_nulls` is included because the finite-model search's
/// strength changes how hard a kUnknown verdict tried.
std::string BudgetKey(const TableauBudget& budget,
                      uint32_t ground_extra_nulls);

/// Options for the certain-answer front end.
struct CertainOptions {
  TableauBudget tableau;
  /// Extra nulls for the finite-model search between the shallow and the
  /// full-budget tableau run (0 disables both the search and the shallow
  /// run; see CertainAnswerSolver).
  uint32_t ground_extra_nulls = 3;
  /// Use the full-scan guard matcher instead of the indexed one — the
  /// differential/bench reference path.
  bool naive_matching = false;
  /// Memoize consistency verdicts in the solver's shared ConsistencyCache.
  bool consistency_cache = true;
  /// Total entry bound of that cache. Sized to hold every probe of a full
  /// outdegree-3 bouquet scan (~10^5 keys): an LRU that is smaller than
  /// one scan's working set degenerates to zero hits on repeated scans.
  size_t cache_capacity = 1u << 19;
  /// Scheduler supplying the workers for or-parallel tableau runs (null =
  /// Scheduler::Global()). All layers share the scheduler's single pool.
  Scheduler* scheduler = nullptr;
};

/// Front end for OMQ semantics: consistency and certain answers of UCQs
/// w.r.t. an ontology, per the engine design in DESIGN.md §4.
///
/// Every probe — consistency, entailment, and the certainty of a
/// disjunction — asks one question: is there a model of the rules and the
/// input that answers none of a list of avoided (UCQ, tuple) pairs? That
/// question escalates through three procedures, cheapest first, and stops
/// at the first definite answer:
///  1. the disjunctive guarded tableau under a shallow budget — one fresh
///     null per input element and a capped step count (most decidable
///     probes saturate or close within it);
///  2. the finite-model search of GroundSolver over 0..ground_extra_nulls
///     extra nulls (GF ∧ ¬UCQ has the finite-model property, so small
///     finite countermodels exist where the chase does not terminate);
///  3. the tableau under the full budget.
/// Only the tableau can prove that no model exists (every branch closes);
/// a tableau model and a ground model are both genuine models. A verdict
/// of any stage is therefore a proof, and the escalation can only turn
/// what a single full-budget tableau run leaves kUnknown into a definite
/// verdict, never flip a definite one. With ground_extra_nulls == 0
/// (TableauIsConsistent, or a solver configured without the ground
/// search) only stage 3 runs.
///
/// Thread-safe: the methods may be called concurrently (the parallel
/// bouquet scan does). Verdicts are memoized in a sharded
/// ConsistencyCache shared by all copies of the solver, keyed by canonical
/// instance content + ontology id + budget fingerprint; TableauStats are
/// accumulated across every tableau run the solver performs.
class CertainAnswerSolver {
 public:
  /// Normalizes the ontology; fails if it uses unsupported features.
  static Result<CertainAnswerSolver> Create(const Ontology& ontology,
                                            CertainOptions options = {});

  explicit CertainAnswerSolver(RuleSet rules, CertainOptions options = {});

  /// Is the instance consistent w.r.t. the ontology?
  Certainty IsConsistent(const Instance& input);

  /// Consistency under a caller-supplied tableau budget, by the full-budget
  /// tableau alone (used by the tiling marker probes). Consults the same
  /// shared cache, under a distinct budget fingerprint.
  Certainty TableauIsConsistent(const Instance& input,
                                const TableauBudget& budget);

  /// Is `tuple` a certain answer to `query` on `input`? (kYes also when the
  /// instance is inconsistent, as every tuple is then certain.)
  Certainty IsCertain(const Instance& input, const Ucq& query,
                      const std::vector<ElemId>& tuple);

  Certainty IsCertain(const Instance& input, const Cq& query,
                      const std::vector<ElemId>& tuple) {
    return IsCertain(input, Ucq::Single(query), tuple);
  }

  /// All certain answers among tuples over dom(input). Tuples mapping to
  /// kUnknown are reported in `unknown` when non-null.
  std::set<std::vector<ElemId>> CertainAnswers(
      const Instance& input, const Ucq& query,
      std::vector<std::vector<ElemId>>* unknown = nullptr);

  /// Is the disjunction q1(t1) ∨ ... ∨ qk(tk) certain while no single
  /// disjunct is? Such a witness refutes materializability (Theorem 17 /
  /// Definition 2 in the paper).
  Certainty HasDisjunctionViolation(
      const Instance& input,
      const std::vector<std::pair<Ucq, std::vector<ElemId>>>& disjuncts);

  const RuleSet& rules() const { return rules_; }
  const CertainOptions& options() const { return options_; }

  /// Totals across every tableau run this solver (and its copies) made.
  TableauStats tableau_stats() const;
  /// Hit/miss/eviction counters of the shared consistency cache.
  ConsistencyCacheStats cache_stats() const;

  /// The shared memo table, for callers composing their own probe keys
  /// (e.g. the whole-probe memo in FindDisjunctionViolation).
  ConsistencyCache& cache() { return shared_->cache; }

  /// Canonical key prefix of any memoized probe on `input` under the
  /// solver's default budgets (canonical instance content + ontology id +
  /// budget fingerprint). `rename` receives the element renaming so
  /// callers can tokenize further elements (query tuples) consistently.
  std::string ProbeKey(const Instance& input,
                       std::unordered_map<ElemId, uint32_t>* rename) const;

 private:
  // Cache + stats shared by all copies of a solver, so the parallel
  // bouquet shards (which share one solver by reference) and any
  // by-value captures all feed one memo table.
  struct SharedState {
    explicit SharedState(size_t capacity) : cache(capacity) {}
    ConsistencyCache cache;
    mutable std::mutex stats_mu;
    TableauStats tableau_totals;
    // The solver no longer owns a worker pool: or-parallel tableau runs
    // draw workers from the shared Scheduler (options.scheduler, default
    // Scheduler::Global()), so every layer shares one pool.
  };

  Certainty ConsistencyImpl(const Instance& input, const TableauBudget& budget,
                            uint32_t ground_extra_nulls);
  // The escalation shared by every probe (see the class comment): kYes =
  // found a model of the rules and `input` answering none of the `avoid`
  // pairs, kNo = the tableau closed every branch, kUnknown otherwise.
  Certainty SearchModel(const Instance& input, const AvoidList& avoid,
                        const TableauBudget& budget,
                        uint32_t ground_extra_nulls);
  void AccumulateStats(const TableauStats& stats);

  RuleSet rules_;
  CertainOptions options_;
  std::shared_ptr<SharedState> shared_;
  uint64_t solver_id_;
};

}  // namespace gfomq

#endif  // GFOMQ_REASONER_CERTAIN_H_
