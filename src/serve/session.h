#ifndef GFOMQ_SERVE_SESSION_H_
#define GFOMQ_SERVE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datalog/engine.h"
#include "instance/instance.h"
#include "serve/plan.h"

namespace gfomq::serve {

/// Observability counters of one session (monotone).
struct SessionStats {
  uint64_t asserts = 0;             // base facts actually added
  uint64_t retracts = 0;            // base facts actually removed
  uint64_t noop_deltas = 0;         // assert-of-present / retract-of-absent
  uint64_t full_evaluations = 0;    // from-scratch fixpoints (view init)
  uint64_t incremental_refreshes = 0;  // assert-only delta saturations
  uint64_t dred_rounds = 0;         // retraction syncs (overdelete+rederive)
  uint64_t overdeleted_facts = 0;   // DRed phase-1 removals
  uint64_t rederived_facts = 0;     // facts restored by the rederive pass
  uint64_t answer_cache_hits = 0;   // Answers served with no pending delta
  uint64_t tableau_recomputes = 0;  // tableau-backend answer refreshes
  uint64_t fo_evaluations = 0;      // FO-backend matcher runs (stateless —
                                    // deltas cost nothing until Answers)
  uint64_t csp_sat_solves = 0;      // CSP/SAT-backend consistency solves
};

/// One client's mutable state against a compiled plan: a base instance
/// (the externally asserted facts), a delta log, and one materialized view
/// per registered query, kept consistent with the base *incrementally*:
///
///  - On a Datalog-backed plan, each view holds the fixpoint of the
///    query's (pruned) rewriting over the base. Asserts extend it by
///    semi-naive delta saturation (DatalogEngine::SaturateDelta, the
///    by-relation dispatch seeded with just the new facts); retractions
///    run DRed: overdelete the closure of the retracted facts
///    (DatalogEngine::OverdeleteClosure), rederive the overdeleted facts
///    that keep a one-step derivation (DatalogEngine::Rederive), then one
///    delta pass seeded with only the rederived and newly asserted facts.
///    Maintenance cost follows the change, not the view. Views sync
///    lazily, on Answers(), so a burst of deltas costs one maintenance
///    round.
///  - On a tableau-backed plan, answers are memoized per base revision
///    (Instance::revision() is the validity token) and recomputed through
///    the plan's shared solver — whose ConsistencyCache carries most of
///    the reuse across deltas and across sessions.
///  - FO-rewrite views are *stateless*: the compiled UCQ is matched
///    directly against the base (memoized per revision). Asserts and
///    retracts cost literally nothing until the next Answers call — no
///    fixpoint, no DRed.
///  - CSP/SAT views are stateless too: one SAT-dispatched homomorphism
///    test decides consistency, then answers come from base matching (or
///    the full domain product when inconsistent).
///
/// Every computed (non-memo-hit) answer is counted in the plan's
/// PlannerStats::answers_computed, per backend.
///
/// Sessions are NOT thread-safe; the serving driver serializes calls per
/// session (distinct sessions run concurrently and share only the plan's
/// internally synchronized state).
class Session {
 public:
  explicit Session(std::shared_ptr<OmqPlan> plan);

  const std::shared_ptr<OmqPlan>& plan() const { return plan_; }

  /// The base instance (externally asserted facts only).
  const Instance& db() const { return base_; }
  uint64_t revision() const { return base_.revision(); }

  /// Adds (or finds) a named constant in the session's domain.
  ElemId AddConstant(const std::string& name);

  /// Asserts a base fact. Returns false (and counts a no-op) when the fact
  /// is already present; an error when malformed.
  Result<bool> Assert(const Fact& f);

  /// Retracts a base fact. Returns false when absent. Retracting a fact
  /// that is still *derivable* leaves it in the views' fixpoints — the
  /// rederive pass restores it, matching from-scratch semantics.
  Result<bool> Retract(const Fact& f);

  /// Registers a query under `name`, compiling it through the plan.
  Status RegisterQuery(const std::string& name, const Ucq& query);

  /// Certain answers of the named registered query on the current base,
  /// maintained incrementally as described above.
  Result<std::set<std::vector<ElemId>>> Answers(const std::string& name);

  std::vector<std::string> QueryNames() const;
  const SessionStats& stats() const { return stats_; }

  /// The named Datalog view's engine counters (accumulated over its
  /// maintenance rounds); null for unknown names and other backends.
  const DatalogStats* datalog_stats(const std::string& name) const;

  /// Delta-log entries not yet folded into every initialized Datalog view.
  /// Stays 0 on sessions without one: only those views read the log.
  size_t log_size() const { return log_.size(); }

 private:
  struct View {
    std::shared_ptr<const CompiledQuery> compiled;
    // Datalog backend: the maintained fixpoint and its engine.
    std::unique_ptr<DatalogEngine> engine;
    Instance materialized;
    bool initialized = false;
    size_t synced_pos = 0;  // log_ prefix already folded into the view
    // Revision-memoized backends (tableau, FO, CSP/SAT): answers keyed by
    // base revision. FO and CSP/SAT views are otherwise stateless — no
    // engine, no materialization, zero per-delta maintenance.
    std::set<std::vector<ElemId>> answers;
    uint64_t answers_revision = 0;
    bool has_answers = false;

    explicit View(SymbolsPtr sym) : materialized(std::move(sym)) {}
  };

  /// Brings a Datalog view's element table and fixpoint up to date with
  /// the base (lazy delta fold).
  void SyncView(View* view);
  /// Erases the log prefix that every initialized view has folded.
  void TrimLog();
  void MirrorNewElements(Instance* target) const;

  std::shared_ptr<OmqPlan> plan_;
  Instance base_;
  // Every successful base transition since the oldest unfolded one, in
  // order (no-ops are not logged), recorded only while an initialized
  // Datalog view exists — a view initializes from the base itself. Views
  // fold the suffix they have not seen; net effects are computed per
  // fact, so assert/retract churn between two syncs cancels.
  std::vector<std::pair<bool, Fact>> log_;  // (is_assert, fact)
  size_t live_datalog_views_ = 0;  // initialized Datalog views
  std::map<std::string, View> views_;
  SessionStats stats_;
};

}  // namespace gfomq::serve

#endif  // GFOMQ_SERVE_SESSION_H_
