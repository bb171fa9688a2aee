#include "serve/session.h"

#include <algorithm>

namespace gfomq::serve {

Session::Session(std::shared_ptr<OmqPlan> plan)
    : plan_(std::move(plan)), base_(plan_->ontology().symbols) {}

ElemId Session::AddConstant(const std::string& name) {
  return base_.AddConstant(name);
}

Result<bool> Session::Assert(const Fact& f) {
  if (f.rel >= base_.symbols()->NumRels()) {
    return Status::InvalidArgument("unknown relation id " +
                                   std::to_string(f.rel));
  }
  Status s = base_.CheckFact(f);
  if (!s.ok()) return s;
  if (base_.HasFact(f)) {
    ++stats_.noop_deltas;
    return false;
  }
  base_.AddFact(f);
  if (live_datalog_views_ > 0) log_.emplace_back(true, f);
  ++stats_.asserts;
  return true;
}

Result<bool> Session::Retract(const Fact& f) {
  if (!base_.RemoveFact(f)) {
    ++stats_.noop_deltas;
    return false;
  }
  if (live_datalog_views_ > 0) log_.emplace_back(false, f);
  ++stats_.retracts;
  return true;
}

Status Session::RegisterQuery(const std::string& name, const Ucq& query) {
  if (views_.count(name)) {
    return Status::InvalidArgument("query '" + name + "' already registered");
  }
  Result<std::shared_ptr<const CompiledQuery>> compiled =
      plan_->CompileQuery(query);
  if (!compiled.ok()) return compiled.status();
  auto [it, fresh] =
      views_.emplace(name, View(plan_->ontology().symbols));
  (void)fresh;
  View& view = it->second;
  view.compiled = *compiled;
  if (view.compiled->backend == PlanBackend::kDatalogRewrite) {
    view.engine = std::make_unique<DatalogEngine>(view.compiled->program);
  }
  return Status::Ok();
}

std::vector<std::string> Session::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;
}

void Session::MirrorNewElements(Instance* target) const {
  for (ElemId e = static_cast<ElemId>(target->NumElements());
       e < base_.NumElements(); ++e) {
    if (base_.IsNull(e)) {
      target->AddNull();
    } else {
      target->AddConstant(base_.ElemName(e));
    }
  }
}

const DatalogStats* Session::datalog_stats(const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end() || !it->second.engine) return nullptr;
  return &it->second.engine->stats();
}

void Session::TrimLog() {
  size_t folded = log_.size();
  for (const auto& [name, view] : views_) {
    if (view.initialized) folded = std::min(folded, view.synced_pos);
  }
  if (folded == 0) return;
  log_.erase(log_.begin(), log_.begin() + static_cast<int64_t>(folded));
  for (auto& [name, view] : views_) {
    if (view.initialized) view.synced_pos -= folded;
  }
}

void Session::SyncView(View* view) {
  if (!view->initialized) {
    view->materialized = view->engine->Evaluate(base_);
    view->initialized = true;
    view->synced_pos = log_.size();
    ++live_datalog_views_;
    ++stats_.full_evaluations;
    return;
  }
  if (view->synced_pos == log_.size()) return;

  // Net effect of the unseen log suffix, per fact: membership toggles, so
  // the parity of a fact's transition count against its current base
  // membership determines whether the view's snapshot had it. Churn
  // (assert-then-retract, retract-then-reassert) cancels here and costs
  // the maintenance pass nothing.
  std::map<Fact, size_t> flips;
  for (size_t i = view->synced_pos; i < log_.size(); ++i) {
    ++flips[log_[i].second];
  }
  std::vector<Fact> net_added;
  std::vector<Fact> net_deleted;
  for (const auto& [fact, count] : flips) {
    bool now = base_.HasFact(fact);
    bool before = (count % 2 == 1) ? !now : now;
    if (now && !before) net_added.push_back(fact);
    if (!now && before) net_deleted.push_back(fact);
  }
  view->synced_pos = log_.size();
  TrimLog();
  MirrorNewElements(&view->materialized);

  if (net_deleted.empty()) {
    // Assert-only fast path: extend the fixpoint by one semi-naive run
    // seeded with exactly the fresh facts.
    std::vector<Fact> fresh;
    for (const Fact& f : net_added) {
      if (view->materialized.AddFact(f)) fresh.push_back(f);
    }
    if (!fresh.empty()) {
      view->engine->SaturateDelta(&view->materialized, fresh);
      ++stats_.incremental_refreshes;
    }
    return;
  }

  // DRed: overdelete everything transitively supported by a retracted
  // fact (survivors of the base are pinned), rederive the overdeleted
  // facts that still have a one-step derivation, then one delta pass
  // seeded with just the rederived and newly asserted facts lands exactly
  // on the from-scratch fixpoint — the work tracks the change, not the
  // view.
  Instance& db = view->materialized;
  std::set<Fact> overdeleted =
      view->engine->OverdeleteClosure(db, net_deleted, base_);
  for (const Fact& f : overdeleted) db.RemoveFact(f);
  stats_.overdeleted_facts += overdeleted.size();
  std::vector<Fact> seed;
  for (const Fact& f : net_added) {
    if (db.AddFact(f)) seed.push_back(f);
  }
  const size_t before = db.NumFacts();
  for (Fact& f : view->engine->Rederive(db, overdeleted)) {
    db.AddFact(f);
    seed.push_back(std::move(f));
  }
  view->engine->SaturateDelta(&db, seed);
  stats_.rederived_facts += db.NumFacts() - before;
  ++stats_.dred_rounds;
}

Result<std::set<std::vector<ElemId>>> Session::Answers(
    const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::InvalidArgument("no query named '" + name + "'");
  }
  View& view = it->second;
  const PlanBackend backend = view.compiled->backend;
  if (backend == PlanBackend::kDatalogRewrite) {
    if (view.initialized && view.synced_pos == log_.size()) {
      ++stats_.answer_cache_hits;
    } else {
      plan_->CountAnswer(backend);
    }
    SyncView(&view);
    std::set<std::vector<ElemId>> out;
    int64_t goal = view.compiled->program.goal_rel;
    if (goal >= 0) {
      for (const Fact* f :
           view.materialized.FactsOfPtr(static_cast<uint32_t>(goal))) {
        out.insert(f->args);
      }
    }
    return out;
  }

  // Revision-memoized backends: tableau, FO rewrite, CSP/SAT.
  if (view.has_answers && view.answers_revision == base_.revision()) {
    ++stats_.answer_cache_hits;
    return view.answers;
  }
  plan_->CountAnswer(backend);
  switch (backend) {
    case PlanBackend::kTableau:
      view.answers =
          plan_->solver().CertainAnswers(base_, view.compiled->query);
      ++stats_.tableau_recomputes;
      break;
    case PlanBackend::kFoRewrite:
      view.answers = view.compiled->fo_compiled->AllAnswers(base_);
      ++stats_.fo_evaluations;
      break;
    case PlanBackend::kCspSat:
      view.answers = plan_->CspSatAnswers(base_, *view.compiled);
      ++stats_.csp_sat_solves;
      break;
    case PlanBackend::kDatalogRewrite:
      break;  // handled above
  }
  view.answers_revision = base_.revision();
  view.has_answers = true;
  return view.answers;
}

}  // namespace gfomq::serve
