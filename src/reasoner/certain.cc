#include "reasoner/certain.h"

#include <algorithm>

namespace gfomq {

namespace {

std::atomic<uint64_t> g_next_solver_id{1};

// Budget of the escalation's first, shallow tableau run: one fresh null per
// input element, and a tenth of the default step budget. A probe the
// tableau decides at all is almost always decided within that — a
// terminating chase of an n-element instance typically needs about n
// witnesses — while a probe on an existential cycle never is, and there a
// small finite model (the next stage) is the cheap answer. A flat null
// budget independent of the instance would push terminating chases of
// larger instances through the finite-model search, whose grounding grows
// with the domain; the step cap keeps a disjunction on every fresh null
// from branching through the full step budget first.
constexpr uint64_t kShallowSteps = 5000;

// Tokenizes an element consistently with a CanonicalKey renaming:
// elements that occur in facts keep their first-occurrence token, isolated
// ones are assigned fresh tokens in the order they appear here.
void AppendElemToken(std::string* key, const Instance& inst, ElemId e,
                     std::unordered_map<ElemId, uint32_t>* rename) {
  auto [it, fresh] =
      rename->emplace(e, static_cast<uint32_t>(rename->size()));
  (void)fresh;
  *key += inst.IsNull(e) ? 'n' : 'c';
  *key += std::to_string(it->second);
}

// Exact numeric serialization of a UCQ for entailment keys. Cheaper than
// ToString (no symbol-name lookups), and equally collision-free: relation
// ids and query-local variable ids determine the query.
void AppendUcqKey(std::string* key, const Ucq& query) {
  for (const Cq& d : query.disjuncts) {
    *key += 'd';
    *key += std::to_string(d.num_vars);
    for (const CqAtom& a : d.atoms) {
      *key += 'a';
      *key += std::to_string(a.rel);
      for (uint32_t v : a.vars) {
        *key += ',';
        *key += std::to_string(v);
      }
    }
    *key += 'v';
    for (uint32_t v : d.answer_vars) {
      *key += std::to_string(v);
      *key += ',';
    }
  }
}

}  // namespace

std::string BudgetKey(const TableauBudget& budget,
                      uint32_t ground_extra_nulls) {
  // Verdict-relevant fields only: tableau_threads / spawn_cutoff_depth /
  // engine / learn_nogoods are execution strategy and intentionally absent
  // (see the declaration), so serial, parallel and trail runs of the same
  // probe all share cache entries.
  std::string key = "|b";
  key += std::to_string(budget.max_fresh_nulls);
  key += ':';
  key += std::to_string(budget.max_steps);
  key += ':';
  key += std::to_string(budget.max_branches);
  key += "|g";
  key += std::to_string(ground_extra_nulls);
  return key;
}

Result<CertainAnswerSolver> CertainAnswerSolver::Create(
    const Ontology& ontology, CertainOptions options) {
  Result<RuleSet> rules = NormalizeOntology(ontology);
  if (!rules.ok()) return rules.status();
  return CertainAnswerSolver(std::move(*rules), options);
}

CertainAnswerSolver::CertainAnswerSolver(RuleSet rules, CertainOptions options)
    : rules_(std::move(rules)),
      options_(options),
      shared_(std::make_shared<SharedState>(options.cache_capacity)),
      solver_id_(g_next_solver_id.fetch_add(1, std::memory_order_relaxed)) {}

void CertainAnswerSolver::AccumulateStats(const TableauStats& stats) {
  std::lock_guard<std::mutex> lock(shared_->stats_mu);
  shared_->tableau_totals += stats;
}

TableauStats CertainAnswerSolver::tableau_stats() const {
  std::lock_guard<std::mutex> lock(shared_->stats_mu);
  return shared_->tableau_totals;
}

ConsistencyCacheStats CertainAnswerSolver::cache_stats() const {
  return shared_->cache.stats();
}

std::string CertainAnswerSolver::ProbeKey(
    const Instance& input,
    std::unordered_map<ElemId, uint32_t>* rename) const {
  std::string key = ConsistencyCache::CanonicalKey(input, rename);
  key += "|o";
  key += std::to_string(solver_id_);
  key += BudgetKey(options_.tableau, options_.ground_extra_nulls);
  return key;
}

Certainty CertainAnswerSolver::IsConsistent(const Instance& input,
                                            std::optional<Instance>* model) {
  return ConsistencyImpl(input, options_.tableau, options_.ground_extra_nulls,
                         model);
}

Certainty CertainAnswerSolver::TableauIsConsistent(
    const Instance& input, const TableauBudget& budget) {
  return ConsistencyImpl(input, budget, /*ground_extra_nulls=*/0);
}

Certainty CertainAnswerSolver::ConsistencyImpl(
    const Instance& input, const TableauBudget& budget,
    uint32_t ground_extra_nulls, std::optional<Instance>* model) {
  if (model != nullptr) model->reset();
  std::string key;
  std::optional<Certainty> hit;
  if (options_.consistency_cache) {
    // The budget and the finite-model search's strength are in the key:
    // kYes/kNo verdicts are ground truth, but kUnknown depends on how hard
    // the procedures tried, and the cache must never upgrade or downgrade
    // a verdict across differently-budgeted probes.
    key = ConsistencyCache::CanonicalKey(input);
    key += "|o";
    key += std::to_string(solver_id_);
    key += BudgetKey(budget, ground_extra_nulls);
    hit = shared_->cache.Lookup(key);
    // The cache holds verdicts only: a kYes hit carries no model, so a
    // caller that asks for one searches again below.
    if (hit && (*hit != Certainty::kYes || model == nullptr)) return *hit;
  }
  Certainty verdict =
      SearchModel(input, {}, budget, ground_extra_nulls, model);
  // A memoized kYes is a proof whatever the repeated search decides.
  if (hit) return *hit;
  if (options_.consistency_cache) shared_->cache.Insert(key, verdict);
  return verdict;
}

Certainty CertainAnswerSolver::IsCertain(const Instance& input,
                                         const Ucq& query,
                                         const std::vector<ElemId>& tuple) {
  // Entailment probes are memoized alongside consistency verdicts: the key
  // extends the canonical instance content with the query text and the
  // answer tuple tokenized through the same element renaming, so the
  // verdict transfers across isomorphic (instance, tuple) pairs.
  std::string key;
  if (options_.consistency_cache) {
    std::unordered_map<ElemId, uint32_t> rename;
    key = ProbeKey(input, &rename);
    key += "|q";
    AppendUcqKey(&key, query);
    key += "|t";
    for (ElemId e : tuple) AppendElemToken(&key, input, e, &rename);
    if (std::optional<Certainty> hit = shared_->cache.Lookup(key)) {
      return *hit;
    }
  }
  // Certain iff no model avoids the answer.
  Certainty verdict = SearchModel(input, {{query, tuple}}, options_.tableau,
                                  options_.ground_extra_nulls);
  if (verdict != Certainty::kUnknown) {
    verdict = verdict == Certainty::kYes ? Certainty::kNo : Certainty::kYes;
  }
  if (options_.consistency_cache) shared_->cache.Insert(key, verdict);
  return verdict;
}

Certainty CertainAnswerSolver::SearchModel(const Instance& input,
                                           const AvoidList& avoid,
                                           const TableauBudget& budget,
                                           uint32_t ground_extra_nulls,
                                           std::optional<Instance>* model) {
  auto run_tableau = [&](const TableauBudget& b) {
    Tableau tableau(rules_, b, options_.naive_matching, options_.scheduler);
    Certainty found =
        avoid.empty()
            ? tableau.IsConsistent(input)
            : tableau.FindModelWhere(
                  input,
                  [&avoid](const Instance& m) {
                    for (const auto& [q, t] : avoid) {
                      if (q.HasAnswer(m, t)) return false;
                    }
                    return true;
                  },
                  /*reject_antimonotone=*/true);
    AccumulateStats(tableau.stats());
    if (found == Certainty::kYes && model != nullptr) {
      *model = tableau.last_model();
    }
    return found;
  };
  if (ground_extra_nulls == 0) return run_tableau(budget);
  // Stage 1: a tableau kYes/kNo under a smaller budget is as much a proof
  // as one under the full budget.
  TableauBudget shallow = budget;
  shallow.max_fresh_nulls = static_cast<uint32_t>(std::min<uint64_t>(
      budget.max_fresh_nulls, std::max<uint64_t>(1, input.NumElements())));
  shallow.max_steps = std::min(budget.max_steps, kShallowSteps);
  Certainty found = run_tableau(shallow);
  if (found != Certainty::kUnknown) return found;
  // Stage 2: a finite model is a model; its absence proves nothing. It
  // extends the input by fresh nulls, so the input's ids stay intact.
  if (GroundSolver(rules_).FindModel(input, avoid, ground_extra_nulls,
                                     model) == Certainty::kYes) {
    return Certainty::kYes;
  }
  // Stage 3: the full budget, unless stage 1 already ran under it.
  if (shallow.max_fresh_nulls == budget.max_fresh_nulls &&
      shallow.max_steps == budget.max_steps) {
    return found;
  }
  return run_tableau(budget);
}

std::set<std::vector<ElemId>> CertainAnswerSolver::CertainAnswers(
    const Instance& input, const Ucq& query,
    std::vector<std::vector<ElemId>>* unknown) {
  std::set<std::vector<ElemId>> out;
  size_t arity = query.Arity();
  const uint32_t n = static_cast<uint32_t>(input.NumElements());
  if (n == 0) return out;
  auto probe = [&](const std::vector<ElemId>& tuple) {
    Certainty c = IsCertain(input, query, tuple);
    if (c == Certainty::kYes) {
      out.insert(tuple);
    } else if (c == Certainty::kUnknown && unknown != nullptr) {
      unknown->push_back(tuple);
    }
  };
  // Every certain tuple holds in every model, so a tuple the consistency
  // probe's model does not answer is not certain and needs no probe.
  std::optional<Instance> model;
  Certainty consistent = IsConsistent(input, &model);
  if (model) {
    for (const std::vector<ElemId>& tuple : query.AllAnswers(*model)) {
      if (std::all_of(tuple.begin(), tuple.end(),
                      [n](ElemId e) { return e < n; })) {
        probe(tuple);
      }
    }
    return out;
  }
  // Enumerate all tuples over dom(input); on an inconsistent input each
  // of them is certain.
  std::vector<ElemId> tuple(arity, 0);
  for (;;) {
    if (consistent == Certainty::kNo) {
      out.insert(tuple);
    } else {
      probe(tuple);
    }
    // Next tuple (also terminates the arity-0 case after one round).
    size_t i = 0;
    for (; i < arity; ++i) {
      if (++tuple[i] < n) break;
      tuple[i] = 0;
    }
    if (i == arity) break;
  }
  return out;
}

Certainty CertainAnswerSolver::HasDisjunctionViolation(
    const Instance& input,
    const std::vector<std::pair<Ucq, std::vector<ElemId>>>& disjuncts) {
  // (1) The disjunction must be certain: no model avoids all disjuncts.
  std::string key;
  Certainty all_fail;
  std::optional<Certainty> cached;
  if (options_.consistency_cache) {
    std::unordered_map<ElemId, uint32_t> rename;
    key = ProbeKey(input, &rename);
    key += "|D";
    for (const auto& [q, t] : disjuncts) {
      AppendUcqKey(&key, q);
      key += "|t";
      for (ElemId e : t) AppendElemToken(&key, input, e, &rename);
    }
    cached = shared_->cache.Lookup(key);
  }
  if (cached) {
    all_fail = *cached;
  } else {
    all_fail = SearchModel(input, disjuncts, options_.tableau,
                           options_.ground_extra_nulls);
    if (options_.consistency_cache) shared_->cache.Insert(key, all_fail);
  }
  if (all_fail == Certainty::kYes) return Certainty::kNo;  // not even certain
  if (all_fail == Certainty::kUnknown) return Certainty::kUnknown;
  // (2) No single disjunct may be certain.
  bool any_unknown = false;
  for (const auto& [q, t] : disjuncts) {
    Certainty c = IsCertain(input, q, t);
    if (c == Certainty::kYes) return Certainty::kNo;
    if (c == Certainty::kUnknown) any_unknown = true;
  }
  return any_unknown ? Certainty::kUnknown : Certainty::kYes;
}

}  // namespace gfomq
