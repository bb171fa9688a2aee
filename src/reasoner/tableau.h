#ifndef GFOMQ_REASONER_TABLEAU_H_
#define GFOMQ_REASONER_TABLEAU_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/scheduler.h"
#include "instance/instance.h"
#include "logic/rules.h"

namespace gfomq {

/// Three-valued outcome of a reasoning question.
enum class Certainty { kYes, kNo, kUnknown };

/// Which branch-exploration engine the tableau uses. All engines implement
/// the same complete procedure and return bit-identical verdicts on
/// budget-decisive inputs; they differ in how branch state is materialized.
enum class TableauEngine : uint8_t {
  /// Copy-on-write branching (the default and the differential reference):
  /// forked branches share the parent Instance until first mutation.
  /// Serial at tableau_threads == 1, or-parallel above.
  kCow,
  /// Trail-based destructive branching: one mutable branch, a typed undo
  /// trail with push_level/pop_level, and CDCL nogood learning against the
  /// in-repo SAT solver. Serial only — tableau_threads is ignored (the
  /// single mutable instance is not shareable across workers; see DESIGN.md
  /// §Trail engine for the thread-safety status).
  kTrail,
};

/// Resource budget for the disjunctive guarded tableau. The tableau is a
/// complete procedure whenever it terminates within budget; hitting a limit
/// yields kUnknown, never a wrong answer.
///
/// The engine/threading fields choose an *execution strategy*, not a
/// verdict: consistency-cache keys deliberately exclude them (see BudgetKey
/// in reasoner/certain.h), so serial, parallel, and trail runs of the same
/// probe share cache entries.
struct TableauBudget {
  uint32_t max_fresh_nulls = 80;     // per branch
  uint64_t max_steps = 50000;        // rule firings across the search
  uint64_t max_branches = 20000;     // saturated/closed branches explored
  /// Worker threads for the or-parallel branch exploration: 1 = the serial
  /// reference engine (default), 0 = one per hardware thread, n = exactly
  /// n. Verdicts are identical for every value on budget-decisive inputs
  /// (the tableau is a complete procedure either way); only which branch
  /// hits a shared step/branch limit first can differ near the budget
  /// boundary, and then every value still answers kUnknown-or-correct.
  uint32_t tableau_threads = 1;
  /// DEPRECATED fixed-depth override of the occupancy-driven spawn
  /// decision. 0 (the default) = consult Scheduler::ShouldSpawn() per fork
  /// — successor branches become pool tasks only while the shared pool has
  /// spare capacity, so a tableau racing other layers for the same workers
  /// automatically stays serial. A nonzero value restores the legacy
  /// heuristic: forks at disjunctive nesting depth < the cutoff spawn,
  /// deeper ones stay serial inside their task. Kept so old bench flags
  /// remain valid; like every execution-strategy field it is excluded from
  /// cache keys (BudgetKey), so probes at different cutoffs share entries.
  uint64_t spawn_cutoff_depth = 0;
  /// Branch-exploration engine (see TableauEngine).
  TableauEngine engine = TableauEngine::kCow;
  /// Under the trail engine: learn a conflict clause from every logically
  /// closed branch and prune sibling choices that would replay it. Only
  /// takes effect on rule sets where explanation-based nogoods are sound
  /// (the merge-free monotone fragment — see DESIGN.md §Trail engine);
  /// elsewhere the trail engine runs without learning.
  bool learn_nogoods = true;
};

/// Statistics of a tableau run (see DESIGN.md §Chase engine). A run's
/// counters are reset by ForEachModel; callers that aggregate across runs
/// (CertainAnswerSolver) use operator+=, and callers that attribute a span
/// of an aggregate's life (DecidePtimeByBouquets) subtract two snapshots
/// with operator-=. Counters come in two flavours: additive tallies (summed
/// by operator+=, subtracted by operator-=) and peak-style watermarks
/// (peak_branch_depth, peak_live_tasks), which operator+= max-merges so
/// per-worker partial stats combine to the same aggregate in any order.
/// A watermark cannot be un-merged: a difference keeps the later
/// snapshot's watermarks, which bound the span's peaks from above. Likewise
/// budget_hit is or-merged and a difference keeps the later snapshot's
/// flag: whether any run up to then hit its budget.
struct TableauStats {
  uint64_t steps = 0;                // rule firings (obligations expanded)
  uint64_t branches_opened = 0;      // branches entered (root + successors)
  uint64_t branches_closed = 0;
  uint64_t branches_saturated = 0;
  uint64_t guard_match_probes = 0;   // candidate facts examined by matching
  uint64_t index_lookups = 0;        // guard matches served by (rel,pos,elem)
  uint64_t relation_scans = 0;       // guard matches over the per-rel list
  uint64_t cow_copies = 0;           // instance clones actually materialized
  uint64_t peak_branch_depth = 0;    // deepest disjunctive nesting explored
  uint64_t tasks_spawned = 0;        // branches handed to the pool
  uint64_t cancelled_branches = 0;   // abandoned by cooperative cancellation
  uint64_t sequential_cutoff_hits = 0;  // forks kept serial (occupancy/cutoff)
  uint64_t peak_live_tasks = 0;      // max concurrently live explorations
  uint64_t trail_entries = 0;        // typed undo entries recorded (trail)
  uint64_t pop_levels = 0;           // trail levels popped (backtracks)
  uint64_t nogoods_learned = 0;      // conflict clauses fed to the SAT store
  uint64_t nogood_prunes = 0;        // sibling choices pruned by propagation
  bool budget_hit = false;

  TableauStats& operator+=(const TableauStats& o) {
    ForEachTally(o, [](uint64_t& a, uint64_t b) { a += b; });
    peak_branch_depth = peak_branch_depth > o.peak_branch_depth
                            ? peak_branch_depth
                            : o.peak_branch_depth;
    peak_live_tasks = peak_live_tasks > o.peak_live_tasks
                          ? peak_live_tasks
                          : o.peak_live_tasks;
    budget_hit = budget_hit || o.budget_hit;
    return *this;
  }

  /// `*this` must be a later snapshot of the accumulator `earlier` was
  /// taken from (so every tally is at least as large).
  TableauStats& operator-=(const TableauStats& earlier) {
    ForEachTally(earlier, [](uint64_t& a, uint64_t b) { a -= b; });
    return *this;
  }

 private:
  // The one list of additive tallies, so += and -= cannot drift apart.
  template <typename Fn>
  void ForEachTally(const TableauStats& o, Fn fn) {
    fn(steps, o.steps);
    fn(branches_opened, o.branches_opened);
    fn(branches_closed, o.branches_closed);
    fn(branches_saturated, o.branches_saturated);
    fn(guard_match_probes, o.guard_match_probes);
    fn(index_lookups, o.index_lookups);
    fn(relation_scans, o.relation_scans);
    fn(cow_copies, o.cow_copies);
    fn(tasks_spawned, o.tasks_spawned);
    fn(cancelled_branches, o.cancelled_branches);
    fn(sequential_cutoff_hits, o.sequential_cutoff_hits);
    fn(trail_entries, o.trail_entries);
    fn(pop_levels, o.pop_levels);
    fn(nogoods_learned, o.nogoods_learned);
    fn(nogood_prunes, o.nogood_prunes);
  }
};

/// Enumerates extensions of the partial assignment `env` (entry -1 =
/// unbound) that match `guard` against a fact of `inst`, binding exactly
/// the unassigned guard positions. The vector handed to the callback is a
/// scratch buffer owned by the enumeration (same size as `env`) — copy it
/// to keep it past the callback. The callback returns true to stop; the
/// function returns true iff it was stopped.
///
/// Candidate facts are drawn from the instance's incremental indexes: the
/// most selective bound guard position selects a (rel, pos, elem) list,
/// falling back to the per-relation list when no position is bound — the
/// same discipline as the homomorphism Matcher. Every guard variable id
/// must be < env.size().
bool ForEachGuardMatch(
    const Lit& guard, const Instance& inst, const std::vector<int64_t>& env,
    const std::function<bool(const std::vector<int64_t>&)>& fn,
    TableauStats* stats = nullptr);

/// The pre-index reference: scans every fact of the instance (in sorted
/// fact order) per enumeration. Semantically identical to ForEachGuardMatch
/// — same extension set, possibly different order — and kept for
/// differential testing and the naive bench reference.
bool ForEachGuardMatchNaive(
    const Lit& guard, const Instance& inst, const std::vector<int64_t>& env,
    const std::function<bool(const std::vector<int64_t>&)>& fn,
    TableauStats* stats = nullptr);

/// A chosen universal/at-most head unit with its outer-variable binding.
/// The pin list is the branch's persistent obligation queue: pins never
/// retire; FindObligation re-checks them each step. Namespace-scope (not
/// nested in Tableau) so the trail module and its unit tests can build and
/// inspect branch state directly.
struct TableauPin {
  const GuardedRule* rule;
  size_t alt_index;
  size_t unit_index;
  bool is_count;  // true: counts[unit_index] (at-most); false: foralls
  std::vector<ElemId> binding;  // values of rule-local vars 0..num_vars-1

  bool operator==(const TableauPin& o) const {
    return rule == o.rule && alt_index == o.alt_index &&
           unit_index == o.unit_index && is_count == o.is_count &&
           binding == o.binding;
  }
};

/// One branch of the disjunctive tableau: the candidate model under
/// construction plus the branch-local commitments (pins, disequalities,
/// forbidden facts) and the union-find over merges. Under the COW engine a
/// branch is a value type whose Instance is shared until first mutation;
/// under the trail engine a single TableauBranch is mutated in place and
/// unwound through BranchTrail (reasoner/trail.h).
struct TableauBranch {
  // Shared copy-on-write instance: forked branches alias the parent's
  // Instance (and thereby its fact indexes) until their first mutation.
  // This is also what makes branches cheap to hand to other threads: a
  // forked branch shares only immutable state (the first mutation on any
  // thread clones, and a use_count of 1 proves sole ownership).
  std::shared_ptr<Instance> inst;
  std::vector<TableauPin> pinned;
  // Hash filter over `pinned` (PinHash of each entry): a missing hash
  // proves absence, a present one is confirmed by the exact scan.
  std::unordered_set<uint64_t> pin_filter;
  // Committed disequalities as packed normalized pairs (lo, hi), stored
  // over canonical (merge-resolved) element ids.
  std::unordered_set<uint64_t> diseq;
  std::set<Fact> forbidden;  // committed negative facts
  // Union-find over merges: canon[e] = element e was merged into (only
  // merged-away ids have an entry != e). Resolving through Find keeps
  // stale ids (captured before a merge) meaningful.
  std::vector<ElemId> canon;
  uint32_t fresh_nulls = 0;

  const Instance& I() const { return *inst; }
  Instance* Mut(TableauStats* stats);
  ElemId Find(ElemId e) const;
  bool IsDead(ElemId e) const { return Find(e) != e; }
};

/// One disjunct choice on a trail-engine search path: a rule instance
/// (rule index into RuleSet::rules plus guard-match binding over element
/// ids) together with the head alternative taken.
struct NogoodDecision {
  uint32_t rule_index;
  std::vector<ElemId> binding;
  uint32_t alt_index;

  bool operator==(const NogoodDecision&) const = default;
};

/// A learned nogood: a decision set no saturated branch can extend.
/// Soundness contract (tested by the nogood property test): replaying the
/// decision set against a fresh COW search — forcing each listed rule
/// instance to its listed alternative, all other forks exploring freely —
/// closes every branch (Tableau::RefutesWithForcedChoices returns kNo).
/// `depth` records the disjunctive nesting at which the trail search hit
/// the clash that produced the nogood (diagnostic; free forks of a replay
/// may nest deeper).
struct Nogood {
  std::vector<NogoodDecision> decisions;
  uint64_t depth;  // disjunctive nesting depth at the learning clash
};

/// Disjunctive guarded tableau over the rule normal form. It explores the
/// tree of "chase branches": every saturated branch is a finite model of
/// the input instance and the ontology, and every model of both embeds a
/// branch homomorphically (preserving the input's constants). Consequently:
///  - consistency  = some branch saturates,
///  - O,D |= q(a~) = every saturated branch satisfies q(a~)   (UCQ q).
///
/// The engine is index-backed and copy-on-write: guard matching drives off
/// the Instance fact indexes, branch forks share the parent's Instance
/// until their first mutation, pinned-unit and disequality lookups are
/// hash-set probes, and per-rule environment sizes are precomputed once.
/// `naive_matching` selects the full-scan reference path instead (used by
/// differential tests and the before/after benches).
///
/// With budget.tableau_threads != 1 the branch tree is explored
/// or-parallel on the shared scheduler's pool: disjunctive successors
/// become work-stealing tasks while the pool has spare capacity (the
/// occupancy signal; or below the fixed spawn_cutoff_depth when that
/// deprecated override is set), the first accepted model cancels all live
/// siblings through a cooperative flag checked at obligation granularity,
/// and the step/branch budgets are shared relaxed atomics, so hitting a
/// limit still yields kUnknown and never a wrong verdict. The serial path
/// (tableau_threads == 1) is retained verbatim as the differential
/// reference. `scheduler`, when null, resolves to Scheduler::Global() —
/// exactly one ThreadPool exists per scheduler no matter how many tableaux
/// run. Callbacks handed to FindModelWhere with reject_antimonotone must
/// be thread-safe under parallel exploration — they are invoked
/// concurrently from branch tasks.
class Tableau {
 public:
  explicit Tableau(const RuleSet& rules, TableauBudget budget = {},
                   bool naive_matching = false,
                   Scheduler* scheduler = nullptr);

  /// Enumerates saturated branches (models). The callback returns true to
  /// stop the search early (reports are serialized under a lock in the
  /// parallel engine, so the callback itself need not be thread-safe).
  /// Returns false if the budget was hit (some part of the branch space
  /// was not explored).
  bool ForEachModel(const Instance& input,
                    const std::function<bool(const Instance&)>& fn);

  /// Is `input` consistent with the ontology?
  Certainty IsConsistent(const Instance& input);

  /// Tries to find a model of `input` where `reject` returns true (e.g. a
  /// countermodel to a query). kYes = found (model available via
  /// last_model()), kNo = definitively none, kUnknown = budget, or a
  /// saturated branch merged away an input element (`reject` would read
  /// the compacted model's renumbered ids, so the branch decides nothing).

  ///
  /// When `reject_antimonotone` is set, the caller guarantees that once
  /// `reject` is false on a branch structure it stays false on every
  /// extension (true for reject = "does not satisfy a UCQ", since UCQ
  /// answers are preserved by adding facts and by merging elements). The
  /// tableau then prunes such branches without saturating them, which makes
  /// entailment checks terminate even when the chase is infinite.
  Certainty FindModelWhere(const Instance& input,
                           const std::function<bool(const Instance&)>& reject,
                           bool reject_antimonotone = false);

  /// The model the last search accepted, with every input element under
  /// its input id (the input is a subinstance of it). nullopt when the
  /// search found none, or when a merge removed an input element: the
  /// reported model is compacted then, so its ids are not the input's.
  const std::optional<Instance>& last_model() const { return last_model_; }
  const TableauStats& stats() const { return stats_; }

  /// Nogoods learned by the last trail-engine run (empty for COW runs or
  /// when learning was ineligible/disabled).
  const std::vector<Nogood>& learned_nogoods() const {
    return learned_nogoods_;
  }

  /// Soundness probe for learned nogoods (see the nogood property test):
  /// runs the serial COW engine on `input` with every kRule fork whose
  /// (rule, binding) matches a decision of `ng` restricted to the recorded
  /// alternative, all other forks exploring freely. A sound nogood makes
  /// the whole restricted search close (kNo); stats().peak_branch_depth
  /// then bounds the free-fork depth used. Always serial COW, regardless
  /// of budget engine/thread settings.
  Certainty RefutesWithForcedChoices(const Instance& input, const Nogood& ng);

 private:
  using Pinned = TableauPin;
  using Branch = TableauBranch;

  // One pending obligation found in a branch.
  struct Obligation {
    enum class Kind {
      kRule,        // unsatisfied rule instance: branch over alternatives
      kMergeFunc,   // functionality violation: forced merge
      kPinForall,   // pinned forall with an unsatisfied guard match
      kPinAtMost,   // pinned at-most with too many witnesses
    };
    Kind kind;
    const GuardedRule* rule = nullptr;
    std::vector<ElemId> binding;           // rule vars or unit binding
    // By-value copy of the triggering pin: the trail engine mutates (and
    // may reallocate) branch.pinned between sibling choices of one fork,
    // so a pointer into it would dangle after the first pop_level.
    std::optional<Pinned> pin;
    std::vector<ElemId> match;             // guard-match extension (foralls)
    ElemId merge_a = 0, merge_b = 0;       // functionality merge
    std::vector<ElemId> witnesses;         // at-most overflow witnesses
  };

  // Shared state of one or-parallel exploration; defined in tableau.cc.
  struct ParallelCtx;
  // Nogood-learning state of one trail exploration; defined in tableau.cc.
  struct NogoodCtx;

  // The serial reference engine (tableau_threads == 1).
  bool Explore(Branch branch, uint64_t depth,
               const std::function<bool(const Instance&)>& fn, bool* stop);

  // The trail-based destructive engine: one mutable branch, backtracking
  // by popping trail levels, optional nogood pruning. Returns false if the
  // subtree was not fully explored (budget).
  bool ExploreTrail(Branch* branch, class BranchTrail* trail, NogoodCtx* ng,
                    uint64_t depth,
                    const std::function<bool(const Instance&)>& fn,
                    bool* stop);

  // The or-parallel engine: runs the root inline on the calling thread,
  // forks pool tasks at disjunctions, waits for the whole family.
  void ExploreParallel(Branch root,
                       const std::function<bool(const Instance&)>& fn);
  // One exploration task: a serial-style loop over its subtree that spawns
  // sibling tasks at forks above the cutoff depth. `stats` is the task's
  // private accumulator, merged into stats_ when the task retires.
  void ExploreTask(Branch branch, uint64_t depth, ParallelCtx* ctx,
                   TableauStats* stats);

  // Compacts a saturated branch into a reportable model (drops merged-away
  // elements); shared by the serial and parallel engines.
  Instance CompactModel(const Branch& branch) const;
  // Stores `model` (compacted from `branch`) as last_model_, or clears it
  // when an input element of `branch` was merged away.
  void RecordModel(const Branch& branch, const Instance& model);

  // Set during FindModelWhere with an antimonotone reject: branches on
  // which this returns true can never become rejecting models and are
  // abandoned early (counted as satisfied).
  const std::function<bool(const Instance&)>* prune_ = nullptr;
  std::optional<Obligation> FindObligation(const Branch& branch,
                                           TableauStats* stats);

  // Dispatches to the indexed or naive guard matcher per `naive_`.
  bool GuardMatch(const Lit& guard, const Instance& inst,
                  const std::vector<int64_t>& env,
                  const std::function<bool(const std::vector<int64_t>&)>& fn,
                  TableauStats* stats);

  // Environment size (max variable id + 1) needed to evaluate a quantified
  // unit or a whole rule head, precomputed once at construction so the hot
  // loops never re-derive max-vars or resize environments.
  uint32_t EnvNeed(const void* unit) const;

  bool LitHolds(const Lit& lit, const std::vector<ElemId>& env,
                const Instance& inst) const;
  bool AltSatisfied(const HeadAlt& alt, const std::vector<ElemId>& binding,
                    const Branch& branch, TableauStats* stats);
  bool ForallUnitSatisfiedAt(const ForallUnit& unit,
                             const std::vector<ElemId>& binding,
                             const std::vector<ElemId>& match,
                             const Branch& branch) const;
  std::vector<ElemId> CountWitnesses(const CountUnit& unit,
                                     const std::vector<ElemId>& binding,
                                     const Branch& branch,
                                     TableauStats* stats);
  bool PinnedAlready(const Branch& branch, const GuardedRule* rule,
                     size_t alt_index, size_t unit_index, bool is_count,
                     const std::vector<ElemId>& binding) const;

  // Why a mutation closed the branch: the nogood learner turns the three
  // explainable causes into conflict dependencies; everything else (merge
  // conflicts, budget cuts, witness collisions) stays kNone and the
  // closure is not learned from.
  struct Clash {
    enum class Kind {
      kNone,       // not closed, or closed for an unexplained reason
      kForbidden,  // asserted a fact that a forbidden commitment bans
      kNegAtom,    // committed a negative fact that is already present
      kNegEq,      // committed x != y under a binding with x == y
    };
    Kind kind = Kind::kNone;
    Fact fact;  // kForbidden/kNegAtom: the clashing ground fact
  };

  // Branch mutation helpers; return false if the branch closes. All three
  // record their mutations on `trail` when non-null (the trail engine) and
  // mutate directly when null (the COW engines) — one implementation
  // serves both, so the engines cannot drift.
  bool ApplyLits(Branch* branch, const std::vector<Lit>& lits,
                 std::vector<ElemId>* env, TableauStats* stats,
                 class BranchTrail* trail = nullptr, Clash* clash = nullptr);
  bool MergeElements(Branch* branch, ElemId a, ElemId b, TableauStats* stats,
                     class BranchTrail* trail = nullptr);
  bool Diseq(const Branch& branch, ElemId a, ElemId b) const;

  // The choice points of an obligation: non-false head alternatives
  // (kRule), clause literals (kPinForall), witness merge pairs
  // (kPinAtMost), or the single forced action (kMergeFunc). An empty
  // vector means the branch closes. Under RefutesWithForcedChoices, a
  // kRule obligation matching a forced decision yields only that
  // alternative.
  std::vector<size_t> ChoiceIndices(const Obligation& ob) const;

  // Applies choice `ci` (an index returned by ChoiceIndices) of `ob` to
  // `branch` in place; returns false if the branch closes. Trail-recording
  // per the `trail` convention above.
  bool ApplyChoice(Branch* branch, const Obligation& ob, size_t ci,
                   TableauStats* stats, class BranchTrail* trail,
                   Clash* clash = nullptr);

  // Expansion: all successor branches of firing `ob`. Consumes `branch`
  // (the final alternative reuses its storage, which lets deterministic
  // chase chains mutate one shared instance in place).
  std::vector<Branch> Expand(Branch branch, const Obligation& ob,
                             TableauStats* stats);

  const RuleSet& rules_;
  TableauBudget budget_;
  bool naive_;
  TableauStats stats_;
  std::optional<Instance> last_model_;
  // Elements of the current search's input: ids 0..input_elements_-1.
  ElemId input_elements_ = 0;
  // Nogoods learned by the last trail run (for inspection and the
  // soundness property test).
  std::vector<Nogood> learned_nogoods_;
  // True iff explanation-based nogoods are sound for rules_ (no
  // functionality constraints, no negative atom body literals, no
  // forall/count units, no positive equalities in heads); computed once at
  // construction.
  bool nogood_eligible_ = false;
  // Set during RefutesWithForcedChoices: kRule forks matching one of these
  // decisions expand only the recorded alternative.
  const Nogood* forced_ = nullptr;
  // Shared budget accounting, reset per ForEachModel. Relaxed atomics with
  // exact serial semantics at one thread: fetch_add returns the pre-value
  // the old `stats_.steps++ > max_steps` compared. In parallel runs every
  // worker draws from the same counters, so the total work obeys the same
  // budget the serial engine enforces.
  std::atomic<uint64_t> steps_used_{0};
  std::atomic<uint64_t> branch_terminations_{0};  // closed+saturated+pruned
  // The shared scheduler the or-parallel engine spawns through (never
  // null after construction; resolves to Scheduler::Global()). Its single
  // pool is created lazily on the first parallel run.
  Scheduler* scheduler_;
  // Precomputed environment sizes: per rule (keyed by GuardedRule*, the
  // size covering every variable of the rule incl. quantified units) and
  // per unit (keyed by ExistsUnit*/ForallUnit*/CountUnit*).
  std::unordered_map<const void*, uint32_t> env_need_;
};

}  // namespace gfomq

#endif  // GFOMQ_REASONER_TABLEAU_H_
