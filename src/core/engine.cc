#include "core/engine.h"

#include <sstream>

namespace gfomq {

Result<OmqEngine> OmqEngine::Create(Ontology ontology, EngineOptions options) {
  Status v = ontology.Validate();
  if (!v.ok()) return v;
  if (options.tableau_threads != 1) {
    options.certain.tableau.tableau_threads = options.tableau_threads;
  }
  if (options.scheduler != nullptr) {
    if (options.certain.scheduler == nullptr) {
      options.certain.scheduler = options.scheduler;
    }
    if (options.bouquet.scheduler == nullptr) {
      options.bouquet.scheduler = options.scheduler;
    }
  }
  Result<CertainAnswerSolver> solver =
      CertainAnswerSolver::Create(ontology, options.certain);
  if (!solver.ok()) return solver.status();
  return OmqEngine(std::move(ontology), std::move(*solver), options);
}

Result<FoRewriteResult> OmqEngine::RewriteFo(const Ucq& query) {
  Result<RewriteResult> rewrite = Rewrite(query);
  if (!rewrite.ok()) return rewrite.status();
  if (rewrite->MaybeIncomplete()) {
    // A truncated or undecided program may be incomplete; its unfolding
    // would inherit that, so the fast path refuses outright.
    FoRewriteResult bail;
    bail.bail = FoRewriteResult::Bail::kTooLarge;
    return bail;
  }
  std::set<uint32_t> edb;
  for (uint32_t r : ontology_.Signature()) edb.insert(r);
  for (const Cq& d : query.disjuncts) {
    for (const CqAtom& a : d.atoms) edb.insert(a.rel);
  }
  return RewriteToUcq(rewrite->program,
                      std::vector<uint32_t>(edb.begin(), edb.end()),
                      options_.rewriter.fo);
}

const OmqVerdict& OmqEngine::Classify() {
  if (verdict_) return *verdict_;
  OmqVerdict verdict;
  verdict.syntactic = ClassifyOntology(ontology_);
  if (options_.decide_ptime &&
      verdict.syntactic.verdict == DichotomyStatus::kDichotomy) {
    BouquetOptions bouquet = options_.bouquet;
    if (options_.num_threads != 1) bouquet.num_threads = options_.num_threads;
    MetaDecision md = DecidePtimeByBouquets(
        solver_, ontology_.symbols, ontology_.Signature(), bouquet);
    verdict.ptime = md.ptime;
    verdict.violation = std::move(md.violation);
    verdict.bouquets_checked = md.bouquets_checked;
    verdict.budget_exhausted = md.budget_exhausted;
    verdict.meta_stats = std::move(md.stats);
  }
  verdict_ = std::move(verdict);
  return *verdict_;
}

std::string OmqVerdict::Summary(const Symbols& symbols) const {
  (void)symbols;
  std::ostringstream out;
  out << "fragment band: " << syntactic.ToString() << "\n";
  switch (ptime) {
    case Certainty::kYes:
      out << "meta decision: PTIME query evaluation "
             "(materializable; Datalog!=-rewritable)\n";
      break;
    case Certainty::kNo:
      out << "meta decision: coNP-hard query evaluation\n";
      if (violation) {
        out << "  witness: " << violation->ToString() << "\n";
      }
      break;
    case Certainty::kUnknown:
      out << "meta decision: not determined"
          << (budget_exhausted ? " (bouquet budget exhausted)" : "") << "\n";
      break;
  }
  if (bouquets_checked > 0) {
    out << "bouquets checked: " << bouquets_checked << "\n";
  }
  if (meta_stats.model_settled_probes > 0) {
    out << "probes settled by a consistency model: "
        << meta_stats.model_settled_probes << "\n";
  }
  if (meta_stats.cache.Lookups() > 0) {
    out << "consistency cache: " << meta_stats.cache.hits << " hits / "
        << meta_stats.cache.Lookups() << " lookups (hit-rate "
        << meta_stats.cache.HitRate() << ", " << meta_stats.cache.evictions
        << " evictions)\n";
  }
  if (meta_stats.tableau.steps > 0) {
    out << "tableau: " << meta_stats.tableau.steps << " rule firings, "
        << meta_stats.tableau.branches_opened << " branches opened ("
        << meta_stats.tableau.branches_closed << " closed, peak depth "
        << meta_stats.tableau.peak_branch_depth << "), "
        << meta_stats.tableau.guard_match_probes << " guard-match probes ("
        << meta_stats.tableau.index_lookups << " indexed, "
        << meta_stats.tableau.relation_scans << " relation scans), "
        << meta_stats.tableau.cow_copies << " COW copies\n";
    if (meta_stats.tableau.tasks_spawned > 0 ||
        meta_stats.tableau.cancelled_branches > 0) {
      out << "tableau parallelism: " << meta_stats.tableau.tasks_spawned
          << " tasks spawned (peak " << meta_stats.tableau.peak_live_tasks
          << " live), " << meta_stats.tableau.cancelled_branches
          << " branches cancelled, "
          << meta_stats.tableau.sequential_cutoff_hits
          << " sequential-cutoff forks\n";
    }
  }
  return out.str();
}

}  // namespace gfomq
