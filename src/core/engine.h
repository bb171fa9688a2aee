#ifndef GFOMQ_CORE_ENGINE_H_
#define GFOMQ_CORE_ENGINE_H_

#include <optional>
#include <string>

#include "datalog/rewriter.h"
#include "fragments/fragments.h"
#include "reasoner/bouquet.h"
#include "reasoner/certain.h"

namespace gfomq {

/// End-to-end verdict for one ontology, combining:
///  - the syntactic Figure 1 classification (which band the ontology's
///    fragments put it in),
///  - when the ontology is in a dichotomy fragment and small enough, the
///    bouquet-based meta decision (Theorem 13): PTIME vs coNP-hard.
struct OmqVerdict {
  Classification syntactic;
  /// kYes: PTIME query evaluation (= Datalog≠-rewritable in the dichotomy
  /// fragments); kNo: coNP-hard (violation witness attached); kUnknown:
  /// not attempted or budget exhausted.
  Certainty ptime = Certainty::kUnknown;
  std::optional<DisjunctionViolation> violation;
  uint64_t bouquets_checked = 0;
  /// True iff the bouquet enumeration was truncated by max_bouquets
  /// (distinct from "searched everything, found nothing").
  bool budget_exhausted = false;
  /// Parallel-search diagnostics (wall time, per-worker probe counts).
  MetaSearchStats meta_stats;

  std::string Summary(const Symbols& symbols) const;
};

/// Options for the end-to-end pipeline.
struct EngineOptions {
  CertainOptions certain;
  BouquetOptions bouquet;
  /// Run the (expensive) meta decision when the syntactic verdict is a
  /// dichotomy fragment.
  bool decide_ptime = true;
  /// Worker threads for the meta decision (1 = sequential, 0 = hardware
  /// concurrency). Overrides bouquet.num_threads when != 1; the verdict
  /// is bit-identical for every value.
  uint32_t num_threads = 1;
  /// Worker threads for each tableau chase (1 = the serial reference
  /// engine, 0 = hardware concurrency). Overrides
  /// certain.tableau.tableau_threads when != 1; verdicts are identical for
  /// every value, and consistency-cache entries are shared across values.
  uint32_t tableau_threads = 1;
  /// Scheduler supplying workers for every parallel layer this engine
  /// touches — the bouquet meta scan and the or-parallel tableau (null =
  /// Scheduler::Global()). Copied into certain.scheduler and
  /// bouquet.scheduler by Create unless those are already set.
  Scheduler* scheduler = nullptr;
  RewriterOptions rewriter;
};

/// Facade over the whole library: one ontology, every service the paper
/// discusses — consistency, certain answers, the dichotomy classification,
/// the meta decision, and Datalog(≠) rewriting.
class OmqEngine {
 public:
  static Result<OmqEngine> Create(Ontology ontology, EngineOptions options = {});

  const Ontology& ontology() const { return ontology_; }
  CertainAnswerSolver& solver() { return solver_; }

  Certainty IsConsistent(const Instance& input) {
    return solver_.IsConsistent(input);
  }
  Certainty IsCertain(const Instance& input, const Ucq& q,
                      const std::vector<ElemId>& tuple) {
    return solver_.IsCertain(input, q, tuple);
  }
  std::set<std::vector<ElemId>> CertainAnswers(const Instance& input,
                                               const Ucq& q) {
    return solver_.CertainAnswers(input, q);
  }

  /// The full classification pipeline. The verdict is memoized: the first
  /// call runs the (possibly expensive) bouquet meta decision, later calls
  /// return the stored result — "classify once" is the contract the
  /// serving layer's plan compilation leans on.
  const OmqVerdict& Classify();

  /// Datalog(≠) rewriting for an OMQ over this ontology.
  Result<RewriteResult> Rewrite(const Ucq& query) {
    return RewriteToDatalog(ontology_, query, options_.rewriter);
  }

  /// The FO-rewritability fast path: Datalog rewriting followed by the
  /// non-recursive UCQ unfolding (RewriteToUcq). Bails (ok == false) when
  /// the rewriting may be incomplete (RewriteResult::MaybeIncomplete), is
  /// recursive, carries ≠, or unfolds past the options' bounds — callers
  /// then stay on the fixpoint or tableau.
  Result<FoRewriteResult> RewriteFo(const Ucq& query);

 private:
  OmqEngine(Ontology ontology, CertainAnswerSolver solver,
            EngineOptions options)
      : ontology_(std::move(ontology)),
        solver_(std::move(solver)),
        options_(options) {}

  Ontology ontology_;
  CertainAnswerSolver solver_;
  EngineOptions options_;
  std::optional<OmqVerdict> verdict_;  // memoized Classify result
};

}  // namespace gfomq

#endif  // GFOMQ_CORE_ENGINE_H_
