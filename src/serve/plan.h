#ifndef GFOMQ_SERVE_PLAN_H_
#define GFOMQ_SERVE_PLAN_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "csp/csp.h"
#include "csp/csp_sat.h"
#include "datalog/program.h"
#include "query/cq.h"
#include "serve/planner.h"

namespace gfomq::serve {

/// A per-(ontology, query) compiled artifact, interned inside its plan and
/// shared (immutable) across every session serving that OMQ. The backend
/// is chosen *per query* by the planner (see planner.h) unless the plan
/// pins one via PlanOptions::force_backend.
struct CompiledQuery {
  Ucq query;
  PlanBackend backend;
  /// Valid when backend == kDatalogRewrite: the (pruned) Datalog(≠)
  /// rewriting whose goal relation holds exactly the certain answers.
  DatalogProgram program;
  size_t configurations_explored = 0;
  /// The rewriting may be incomplete: its decoration pools were truncated
  /// or some of its sweep probes stayed undecided (RewriteResult::
  /// MaybeIncomplete). The planner never serves such a program.
  bool truncated = false;
  /// Valid when backend == kFoRewrite: the non-recursive UCQ unfolding,
  /// precompiled for indexed matching. Stateless — sessions evaluate it
  /// directly on their base, so a retract costs zero maintenance.
  std::shared_ptr<const CompiledUcq> fo_compiled;
  size_t fo_disjuncts = 0;
  /// Valid when backend == kCspSat: the query precompiled for base
  /// matching (the consistent-case answer set; see OmqPlan::CspSatAnswers).
  std::shared_ptr<const CompiledUcq> base_matcher;
};

/// Options for plan compilation.
struct PlanOptions {
  EngineOptions engine;
  /// Operator override: skip the planner's choice and pin one backend for
  /// every query (tests pin kDatalogRewrite to exercise incremental
  /// maintenance without paying a meta decision per random ontology).
  /// Pinning kFoRewrite or kCspSat fails query compilation when the query
  /// is not eligible; pinning kDatalogRewrite accepts even truncated
  /// rewritings (documented operator escape hatch — the planner itself
  /// never serves one).
  std::optional<PlanBackend> force_backend;
  /// Caller-supplied PTIME verdict: skip the (expensive) meta decision but
  /// leave the planner free to choose among the backends the verdict
  /// licenses — unlike force_backend, which also skips the planner.
  std::optional<Certainty> assume_ptime;
  /// Backend when the meta decision answers kUnknown (budget exhausted or
  /// outside the dichotomy fragments): the tableau is always complete, so
  /// it is the safe default.
  PlanBackend unknown_backend = PlanBackend::kTableau;
  /// Theorem 8 CSP view of this plan's ontology, when the caller has one:
  /// enables the kCspSat backend for queries over ontology-free relations.
  /// Must be an encoding *of this ontology* (checked by fingerprint).
  std::shared_ptr<const CspEncoding> csp_encoding;
  /// Entry bound of the PlanCache (LRU; generous by default — a plan is a
  /// classified-and-compiled ontology, so a serving process rarely needs
  /// more live plans than it has distinct ontologies in flight). Evicted
  /// plans stay alive while sessions hold them; re-registering the
  /// ontology recompiles. Minimum 1.
  size_t plan_capacity = 256;
};

/// Aggregated planner observability for one plan (snapshot).
struct PlannerStats {
  uint64_t chosen[kNumPlanBackends] = {0, 0, 0, 0};
  /// PTIME verdicts that could not serve datalog/FO because the rewriting
  /// was truncated or left sweep probes undecided (possibly incomplete)
  /// and fell back to a complete backend instead.
  uint64_t truncated_fallbacks = 0;
  uint64_t fo_built = 0;   // successful UCQ unfoldings
  uint64_t fo_bailed = 0;  // recursion / ≠ / size bails
  uint64_t csp_solves = 0;
  uint64_t csp_inconsistent = 0;  // solves that found no homomorphism
  /// Answers computed (not served from a memo) per backend.
  uint64_t answers_computed[kNumPlanBackends] = {0, 0, 0, 0};

  PlannerStats& operator+=(const PlannerStats& o);
};

/// The compiled serving artifact for one ontology: classified exactly once
/// (OmqEngine::Classify memoizes the Theorem 13 meta decision), owning the
/// shared tableau solver (and through it the process-wide ConsistencyCache
/// traffic of its sessions) and the interned compiled queries. Plans are immutable after compilation except
/// for the query-compilation memo and the planner counters, which are
/// internally synchronized — many driver threads compile and share queries
/// concurrently.
class OmqPlan {
 public:
  static Result<std::shared_ptr<OmqPlan>> Compile(Ontology ontology,
                                                  PlanOptions options = {});

  uint64_t id() const { return id_; }
  /// The plan-level default side (what Compile derived from the verdict);
  /// individual queries may land elsewhere — see CompiledQuery::backend.
  PlanBackend backend() const { return backend_; }
  const Ontology& ontology() const { return engine_.ontology(); }
  const OmqVerdict& verdict() const { return verdict_; }
  const PlanOptions& options() const { return options_; }
  uint64_t compile_micros() const { return compile_micros_; }

  /// The shared certain-answer solver (thread-safe; backs every session's
  /// tableau evaluation and consistency probes).
  CertainAnswerSolver& solver() { return engine_.solver(); }

  /// Returns the compiled artifact for `query`, compiling it on first use
  /// (memoized by query text; thread-safe).
  Result<std::shared_ptr<const CompiledQuery>> CompileQuery(const Ucq& query);

  /// kCspSat evaluation: consistency of the base w.r.t. the ontology is
  /// one SAT-dispatched homomorphism test against the encoding's template;
  /// a consistent base answers by pure matching (the query relations are
  /// untouched by the ontology), an inconsistent one makes every tuple
  /// over the active domain certain — exactly the tableau's convention.
  std::set<std::vector<ElemId>> CspSatAnswers(const Instance& base,
                                              const CompiledQuery& compiled);

  /// Is `query` eligible for the kCspSat backend? Requires a fingerprint-
  /// matched encoding and every query relation outside the ontology
  /// signature (then consistent-case certain answers = base matches).
  bool CspEligible(const Ucq& query) const;

  /// Sessions count every computed (non-memo) answer here, per backend.
  /// Observability only: the planner's choice never depends on it.
  void CountAnswer(PlanBackend b) {
    answers_computed_[static_cast<size_t>(b)].fetch_add(
        1, std::memory_order_relaxed);
  }

  PlannerStats planner_stats() const;

  /// Query-memo observability: rewritings built / served from the memo.
  uint64_t query_compilations() const {
    return query_compilations_.load(std::memory_order_relaxed);
  }
  uint64_t query_cache_hits() const {
    return query_cache_hits_.load(std::memory_order_relaxed);
  }

  /// One-line plan summary for the driver's `stats` command.
  std::string Summary() const;

 private:
  OmqPlan(OmqEngine engine, PlanOptions options);

  Result<std::shared_ptr<const CompiledQuery>> BuildQuery(const Ucq& query);
  Status BuildRewrite(const Ucq& query, CompiledQuery* compiled);
  std::vector<uint32_t> EdbRels(const Ucq& query) const;

  OmqEngine engine_;
  PlanOptions options_;
  OmqVerdict verdict_;
  PlanBackend backend_ = PlanBackend::kTableau;
  /// The PTIME verdict the planner trusts (assume_ptime or Classify).
  Certainty ptime_ = Certainty::kUnknown;
  uint64_t id_ = 0;
  uint64_t compile_micros_ = 0;

  std::set<uint32_t> ontology_sig_;
  bool csp_encoding_matches_ = false;
  std::unique_ptr<CspSatSolver> csp_sat_;

  std::atomic<uint64_t> answers_computed_[kNumPlanBackends] = {};
  std::atomic<uint64_t> chosen_[kNumPlanBackends] = {};
  std::atomic<uint64_t> truncated_fallbacks_{0};
  std::atomic<uint64_t> fo_built_{0};
  std::atomic<uint64_t> fo_bailed_{0};
  std::atomic<uint64_t> csp_solves_{0};
  std::atomic<uint64_t> csp_inconsistent_{0};

  std::mutex queries_mu_;
  std::map<std::string, std::shared_ptr<const CompiledQuery>> queries_;
  std::atomic<uint64_t> query_compilations_{0};
  std::atomic<uint64_t> query_cache_hits_{0};
};

/// Stats of a PlanCache (hit rate is the serving bench's plan-reuse
/// metric; evictions count LRU displacements once the capacity bound is
/// hit — all three are surfaced by the driver's `stats` command).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t Lookups() const { return hits + misses; }
  double HitRate() const {
    return Lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(Lookups());
  }
};

/// Process-wide registry of compiled plans, keyed by ontology identity
/// (symbol-table identity + canonical ontology text — the term store
/// already hash-conses the formulas, so serialization is cheap and two
/// textually identical ontologies over one symbol table share a plan).
/// Bounded: a doubly-linked LRU list plus a key index (the
/// ConsistencyCache discipline), capped at options.plan_capacity entries —
/// hits refresh recency, inserts past the cap evict the least recently
/// used plan (sessions holding the shared_ptr keep it alive; the cache
/// merely forgets it). Thread-safe; concurrent GetOrCompile calls for the
/// same ontology compile once (first wins) — later callers block on the
/// registry mutex and hit.
class PlanCache {
 public:
  explicit PlanCache(PlanOptions options = {}) : options_(options) {}

  Result<std::shared_ptr<OmqPlan>> GetOrCompile(const Ontology& ontology);

  PlanCacheStats stats() const;
  /// Planner counters summed over every live cached plan.
  PlannerStats PlannerTotals() const;
  size_t size() const;
  size_t capacity() const;

  /// The cache key used for `ontology` (exposed for tests).
  static std::string Fingerprint(const Ontology& ontology);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<OmqPlan> plan;
  };

  PlanOptions options_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  PlanCacheStats stats_;
};

}  // namespace gfomq::serve

#endif  // GFOMQ_SERVE_PLAN_H_
