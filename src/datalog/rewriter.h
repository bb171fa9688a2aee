#ifndef GFOMQ_DATALOG_REWRITER_H_
#define GFOMQ_DATALOG_REWRITER_H_

#include "common/status.h"
#include "datalog/fo_rewriter.h"
#include "datalog/program.h"
#include "logic/ontology.h"
#include "query/cq.h"
#include "reasoner/certain.h"

namespace gfomq {

/// Options for the Datalog(≠) rewriter.
struct RewriterOptions {
  /// Decoration atoms per configuration are limited to subsets of at most
  /// this size (keeps the enumeration polynomial in practice).
  size_t max_decoration_size = 3;
  /// Include binary atoms over pairs of guard elements in decorations (more
  /// complete, more expensive). Diagonal binaries on single elements are
  /// always included.
  bool binary_decorations = true;
  /// Drop redundant rules from the finished program (PruneRedundantRules).
  /// The fixpoint is unchanged on every database; off only to obtain the
  /// raw sweep as a differential reference.
  bool prune_redundant_rules = true;
  CertainOptions certain;
  /// Bounds for the follow-on UCQ unfolding (RewriteToUcq) when a caller
  /// probes the FO-rewritability fast path.
  FoRewriteOptions fo;
};

/// Result of a rewriting construction.
struct RewriteResult {
  DatalogProgram program;
  size_t configurations_explored = 0;
  /// Rules of the raw sweep that PruneRedundantRules dropped.
  size_t pruned_rules = 0;
  /// True if decoration pools had to be truncated (the program is then
  /// still sound but may be incomplete even on Horn inputs).
  bool truncated = false;
  /// Sweep probes (consistency or entailment) the reasoner left kUnknown.
  /// The sweep emits a rule only on a kYes, so each undecided probe may
  /// have dropped a rule: like `truncated`, a nonzero count means the
  /// program is sound but possibly incomplete, and it must not be served
  /// as the complete answer.
  size_t undecided_probes = 0;
  /// Entailment probes skipped because the configuration's consistency
  /// model falsifies the atom or query match (it is then not certain).
  size_t model_settled_probes = 0;
  /// `truncated` or `undecided_probes`: Π(D) may miss certain answers.
  bool MaybeIncomplete() const { return truncated || undecided_probes > 0; }
  /// Consistency-cache traffic of the configuration sweep (many
  /// configurations are isomorphic, so the hit rate is substantial).
  ConsistencyCacheStats cache;
};

/// Constructs a Datalog(≠) program Π for the OMQ (O, q) by local-consequence
/// saturation: for every "configuration" (a guarded fact or single element
/// decorated with signature atoms), the certain atomic consequences and
/// certain query matches are computed with the complete reasoner and emitted
/// as Datalog rules; an `incons` flag handles inconsistency (paper Π rule 5
/// analogue), and each UCQ disjunct is additionally evaluated directly over
/// the saturated database.
///
/// Soundness: every rule is a certain consequence of O, so Π(D) ⊆ certain
/// answers for every D. Completeness holds for ontologies whose certain
/// answers are determined by per-guarded-set propagation of *deterministic*
/// consequences (Horn-style unravelling-tolerant ontologies, the setting of
/// Theorem 5's PTIME side); the paper's full type-set construction — which
/// also propagates disjunctive information — is intentionally not replicated,
/// as its predicate space is doubly exponential. Tests validate soundness on
/// random inputs and completeness on Horn inputs.
///
/// The sweep emits many subsumed rules; the returned program is pruned of
/// them (RewriterOptions::prune_redundant_rules), so every consumer — the
/// serving views, the FO unfolding, OmqEngine — gets the same fixpoint from
/// a fraction of the rules.
Result<RewriteResult> RewriteToDatalog(const Ontology& ontology,
                                       const Ucq& query,
                                       RewriterOptions options = {});

}  // namespace gfomq

#endif  // GFOMQ_DATALOG_REWRITER_H_
