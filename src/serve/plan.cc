#include "serve/plan.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "datalog/fo_rewriter.h"
#include "datalog/rewriter.h"
#include "logic/printer.h"

namespace gfomq::serve {

namespace {
std::atomic<uint64_t> g_next_plan_id{1};
}  // namespace

PlannerStats& PlannerStats::operator+=(const PlannerStats& o) {
  for (size_t i = 0; i < kNumPlanBackends; ++i) {
    chosen[i] += o.chosen[i];
    answers_computed[i] += o.answers_computed[i];
  }
  truncated_fallbacks += o.truncated_fallbacks;
  fo_built += o.fo_built;
  fo_bailed += o.fo_bailed;
  csp_solves += o.csp_solves;
  csp_inconsistent += o.csp_inconsistent;
  return *this;
}

OmqPlan::OmqPlan(OmqEngine engine, PlanOptions options)
    : engine_(std::move(engine)),
      options_(std::move(options)),
      id_(g_next_plan_id.fetch_add(1, std::memory_order_relaxed)) {}

Result<std::shared_ptr<OmqPlan>> OmqPlan::Compile(Ontology ontology,
                                                  PlanOptions options) {
  auto t0 = std::chrono::steady_clock::now();
  Result<OmqEngine> engine =
      OmqEngine::Create(std::move(ontology), options.engine);
  if (!engine.ok()) return engine.status();
  std::shared_ptr<OmqPlan> plan(
      new OmqPlan(std::move(*engine), std::move(options)));
  const PlanOptions& opts = plan->options_;
  if (opts.force_backend) {
    // The classification is skipped entirely under the override: the
    // caller has pinned the side, and the meta decision is the expensive
    // part of a compile.
    plan->backend_ = *opts.force_backend;
    plan->verdict_.syntactic = ClassifyOntology(plan->ontology());
    if (opts.assume_ptime) {
      plan->ptime_ = *opts.assume_ptime;
      plan->verdict_.ptime = *opts.assume_ptime;
    }
  } else {
    if (opts.assume_ptime) {
      // Caller-supplied verdict: trusted as if Classify had produced it,
      // with the planner still free per query.
      plan->verdict_.syntactic = ClassifyOntology(plan->ontology());
      plan->verdict_.ptime = *opts.assume_ptime;
    } else {
      plan->verdict_ = plan->engine_.Classify();
    }
    plan->ptime_ = plan->verdict_.ptime;
    switch (plan->ptime_) {
      case Certainty::kYes:
        plan->backend_ = PlanBackend::kDatalogRewrite;
        break;
      case Certainty::kNo:
        plan->backend_ = PlanBackend::kTableau;
        break;
      case Certainty::kUnknown:
        plan->backend_ = opts.unknown_backend;
        break;
    }
  }
  for (uint32_t r : plan->ontology().Signature()) {
    plan->ontology_sig_.insert(r);
  }
  if (opts.csp_encoding) {
    // A mismatched encoding would silently answer for the wrong ontology;
    // fingerprint-check once and refuse eligibility on mismatch.
    plan->csp_encoding_matches_ =
        OntologyToString(opts.csp_encoding->ontology) ==
        OntologyToString(plan->ontology());
    if (plan->csp_encoding_matches_) {
      plan->csp_sat_ =
          std::make_unique<CspSatSolver>(opts.csp_encoding->Index());
    }
  }
  plan->compile_micros_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return plan;
}

std::vector<uint32_t> OmqPlan::EdbRels(const Ucq& query) const {
  std::set<uint32_t> edb = ontology_sig_;
  for (const Cq& d : query.disjuncts) {
    for (const CqAtom& a : d.atoms) edb.insert(a.rel);
  }
  return {edb.begin(), edb.end()};
}

bool OmqPlan::CspEligible(const Ucq& query) const {
  if (!csp_sat_) return false;
  for (const Cq& d : query.disjuncts) {
    for (const CqAtom& a : d.atoms) {
      if (ontology_sig_.count(a.rel)) return false;
    }
  }
  return true;
}

Status OmqPlan::BuildRewrite(const Ucq& query, CompiledQuery* compiled) {
  RewriterOptions ropts = options_.engine.rewriter;
  ropts.certain = options_.engine.certain;
  Result<RewriteResult> rewrite = RewriteToDatalog(ontology(), query, ropts);
  if (!rewrite.ok()) return rewrite.status();
  compiled->program = std::move(rewrite->program);
  compiled->configurations_explored = rewrite->configurations_explored;
  compiled->truncated = rewrite->MaybeIncomplete();
  return Status::Ok();
}

Result<std::shared_ptr<const CompiledQuery>> OmqPlan::BuildQuery(
    const Ucq& query) {
  auto compiled = std::make_shared<CompiledQuery>();
  compiled->query = query;

  if (options_.force_backend) {
    compiled->backend = *options_.force_backend;
    switch (compiled->backend) {
      case PlanBackend::kDatalogRewrite: {
        // Operator escape hatch: a pinned datalog backend serves even a
        // truncated (possibly incomplete) rewriting — the planner itself
        // never does.
        Status s = BuildRewrite(query, compiled.get());
        if (!s.ok()) return s;
        break;
      }
      case PlanBackend::kFoRewrite: {
        Status s = BuildRewrite(query, compiled.get());
        if (!s.ok()) return s;
        if (compiled->truncated) {
          return Status::InvalidArgument(
              "rewriting may be incomplete (truncated or undecided); FO "
              "backend refuses incomplete programs");
        }
        FoRewriteResult fo = RewriteToUcq(compiled->program, EdbRels(query),
                                          options_.engine.rewriter.fo);
        if (!fo.ok) {
          fo_bailed_.fetch_add(1, std::memory_order_relaxed);
          return Status::InvalidArgument(
              "query is not FO-rewritable (recursive, uses ~=, or too "
              "large)");
        }
        fo_built_.fetch_add(1, std::memory_order_relaxed);
        compiled->fo_disjuncts = fo.ucq.disjuncts.size();
        compiled->fo_compiled =
            std::make_shared<const CompiledUcq>(std::move(fo.ucq));
        break;
      }
      case PlanBackend::kCspSat: {
        if (!CspEligible(query)) {
          return Status::InvalidArgument(
              "query is not CSP/SAT-eligible (no matching encoding, or a "
              "query relation is constrained by the ontology)");
        }
        compiled->base_matcher = std::make_shared<const CompiledUcq>(query);
        break;
      }
      case PlanBackend::kTableau:
        break;
    }
    chosen_[static_cast<size_t>(compiled->backend)].fetch_add(
        1, std::memory_order_relaxed);
    return std::shared_ptr<const CompiledQuery>(std::move(compiled));
  }

  // The first complete candidate in the planner's preference order.
  PlannerInputs in;
  in.ptime_complete = ptime_ == Certainty::kYes;
  FoRewriteResult fo;
  if (in.ptime_complete) {
    Status s = BuildRewrite(query, compiled.get());
    if (!s.ok()) return s;
    in.rewrite_truncated = compiled->truncated;
    if (!compiled->truncated) {
      fo = RewriteToUcq(compiled->program, EdbRels(query),
                        options_.engine.rewriter.fo);
      in.fo_ok = fo.ok;
      (fo.ok ? fo_built_ : fo_bailed_)
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
  in.csp_eligible = CspEligible(query);

  PlannerDecision decision = ChooseBackend(in);
  if (decision.truncated_fallback) {
    truncated_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  compiled->backend = decision.backend;
  if (decision.backend == PlanBackend::kFoRewrite) {
    compiled->fo_disjuncts = fo.ucq.disjuncts.size();
    compiled->fo_compiled =
        std::make_shared<const CompiledUcq>(std::move(fo.ucq));
  } else if (decision.backend == PlanBackend::kCspSat) {
    compiled->base_matcher = std::make_shared<const CompiledUcq>(query);
  }
  chosen_[static_cast<size_t>(decision.backend)].fetch_add(
      1, std::memory_order_relaxed);
  return std::shared_ptr<const CompiledQuery>(std::move(compiled));
}

Result<std::shared_ptr<const CompiledQuery>> OmqPlan::CompileQuery(
    const Ucq& query) {
  Status v = query.Validate();
  if (!v.ok()) return v;
  std::string key = query.ToString();
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(key);
    if (it != queries_.end()) {
      query_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Compile outside the memo lock (rewriting may chase for a while); a
  // concurrent duplicate compile is wasted work, not a correctness issue —
  // the first insert wins below.
  Result<std::shared_ptr<const CompiledQuery>> compiled = BuildQuery(query);
  if (!compiled.ok()) return compiled.status();
  query_compilations_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(queries_mu_);
  auto [it, fresh] = queries_.emplace(std::move(key), std::move(*compiled));
  (void)fresh;
  return it->second;
}

std::set<std::vector<ElemId>> OmqPlan::CspSatAnswers(
    const Instance& base, const CompiledQuery& compiled) {
  csp_solves_.fetch_add(1, std::memory_order_relaxed);
  const CspEncoding& enc = *options_.csp_encoding;
  Instance csp_input = enc.DecodeToCspInput(base);
  if (csp_sat_->Solve(csp_input)) {
    // Consistent: the base is its own minimal model on the query
    // relations, so certain answers are exactly the base matches.
    return compiled.base_matcher->AllAnswers(base);
  }
  csp_inconsistent_.fetch_add(1, std::memory_order_relaxed);
  // Inconsistent: every tuple over dom(base) is certain — the same
  // convention as CertainAnswerSolver::CertainAnswers (and the same
  // empty-domain special case).
  std::set<std::vector<ElemId>> out;
  const size_t arity = compiled.query.Arity();
  const uint32_t n = static_cast<uint32_t>(base.NumElements());
  if (n == 0) return out;
  std::vector<ElemId> tuple(arity, 0);
  for (;;) {
    out.insert(tuple);
    size_t i = 0;
    for (; i < arity; ++i) {
      if (++tuple[i] < n) break;
      tuple[i] = 0;
    }
    if (i == arity) break;
  }
  return out;
}

PlannerStats OmqPlan::planner_stats() const {
  PlannerStats s;
  for (size_t i = 0; i < kNumPlanBackends; ++i) {
    s.chosen[i] = chosen_[i].load(std::memory_order_relaxed);
    s.answers_computed[i] =
        answers_computed_[i].load(std::memory_order_relaxed);
  }
  s.truncated_fallbacks =
      truncated_fallbacks_.load(std::memory_order_relaxed);
  s.fo_built = fo_built_.load(std::memory_order_relaxed);
  s.fo_bailed = fo_bailed_.load(std::memory_order_relaxed);
  s.csp_solves = csp_solves_.load(std::memory_order_relaxed);
  s.csp_inconsistent = csp_inconsistent_.load(std::memory_order_relaxed);
  return s;
}

std::string OmqPlan::Summary() const {
  PlannerStats ps = planner_stats();
  std::ostringstream out;
  out << "plan " << id_ << ": backend=" << BackendName(backend_)
      << " band=" << StatusName(verdict_.syntactic.verdict)
      << " compile_micros=" << compile_micros_
      << " query_compilations=" << query_compilations()
      << " query_cache_hits=" << query_cache_hits();
  for (size_t i = 0; i < kNumPlanBackends; ++i) {
    out << " chosen_" << BackendName(static_cast<PlanBackend>(i)) << "="
        << ps.chosen[i];
  }
  out << " truncated_fallbacks=" << ps.truncated_fallbacks;
  return out.str();
}

std::string PlanCache::Fingerprint(const Ontology& ontology) {
  // Symbol-table identity first: rel ids in compiled programs are
  // symbol-table-relative, so plans must never be shared across tables
  // even for textually identical ontologies.
  std::ostringstream key;
  key << static_cast<const void*>(ontology.symbols.get()) << "|"
      << OntologyToString(ontology);
  return key.str();
}

Result<std::shared_ptr<OmqPlan>> PlanCache::GetOrCompile(
    const Ontology& ontology) {
  std::string key = Fingerprint(ontology);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++stats_.hits;
    // Refresh recency: move the entry to the LRU front.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->plan;
  }
  // Compiled under the registry lock: concurrent first-compiles of one
  // ontology would otherwise race the (expensive) meta decision; the lock
  // serializes them into one compile plus hits, which is the semantics
  // the plan-cache hit rate reports.
  Result<std::shared_ptr<OmqPlan>> plan = OmqPlan::Compile(ontology, options_);
  if (!plan.ok()) return plan.status();
  ++stats_.misses;
  lru_.push_front(Entry{key, *plan});
  index_.emplace(std::move(key), lru_.begin());
  const size_t cap = options_.plan_capacity == 0 ? 1 : options_.plan_capacity;
  while (index_.size() > cap) {
    // Evict the least recently used plan. Sessions holding the shared_ptr
    // keep the object alive; the cache just forgets the mapping.
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return plan;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

PlannerStats PlanCache::PlannerTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlannerStats total;
  for (const Entry& e : lru_) total += e.plan->planner_stats();
  return total;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

size_t PlanCache::capacity() const {
  return options_.plan_capacity == 0 ? 1 : options_.plan_capacity;
}

}  // namespace gfomq::serve
