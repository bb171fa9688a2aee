#include "reasoner/tableau.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "common/task_group.h"
#include "reasoner/trail.h"
#include "sat/solver.h"

namespace gfomq {

namespace {

// DiseqPack and TableauPinHash (formerly local PackPair/PinHash) moved to
// reasoner/trail.{h,cc}: the trail needs them to rebuild the pin filter on
// pop, and sharing one definition keeps the engines in lockstep.

uint32_t MaxVarIn(const Lit& lit, uint32_t m) {
  for (uint32_t v : lit.args) m = std::max(m, v);
  return m;
}

// Unification core shared by the indexed and naive guard matchers: tries
// every candidate fact against `guard`, extending `env` into the hoisted
// scratch buffer `ext` (one allocation per enumeration, not per fact).
template <typename FactRange>
bool RunGuardMatch(
    const Lit& guard, const FactRange& candidates,
    const std::vector<int64_t>& env,
    const std::function<bool(const std::vector<int64_t>&)>& fn,
    TableauStats* stats) {
  std::vector<int64_t> ext;
  for (const Fact* f : candidates) {
    if (stats != nullptr) ++stats->guard_match_probes;
    if (f->args.size() != guard.args.size()) continue;
    ext.assign(env.begin(), env.end());
    bool ok = true;
    for (size_t i = 0; i < guard.args.size() && ok; ++i) {
      uint32_t v = guard.args[i];
      if (ext[v] < 0) {
        ext[v] = static_cast<int64_t>(f->args[i]);
      } else if (ext[v] != static_cast<int64_t>(f->args[i])) {
        ok = false;
      }
    }
    if (ok && fn(ext)) return true;
  }
  return false;
}

}  // namespace

bool ForEachGuardMatch(
    const Lit& guard, const Instance& inst, const std::vector<int64_t>& env,
    const std::function<bool(const std::vector<int64_t>&)>& fn,
    TableauStats* stats) {
  // Most-selective-bound-position ordering: among the guard's bound
  // argument positions pick the shortest (rel, pos, elem) candidate list;
  // with nothing bound, fall back to the per-relation list.
  const std::vector<const Fact*>* candidates = nullptr;
  for (size_t i = 0; i < guard.args.size(); ++i) {
    uint32_t v = guard.args[i];
    if (v >= env.size() || env[v] < 0) continue;
    const std::vector<const Fact*>& lst = inst.FactsAtPtr(
        guard.rel, static_cast<uint32_t>(i), static_cast<ElemId>(env[v]));
    if (candidates == nullptr || lst.size() < candidates->size()) {
      candidates = &lst;
    }
  }
  if (candidates != nullptr) {
    if (stats != nullptr) ++stats->index_lookups;
  } else {
    if (stats != nullptr) ++stats->relation_scans;
    candidates = &inst.FactsOfPtr(guard.rel);
  }
  return RunGuardMatch(guard, *candidates, env, fn, stats);
}

bool ForEachGuardMatchNaive(
    const Lit& guard, const Instance& inst, const std::vector<int64_t>& env,
    const std::function<bool(const std::vector<int64_t>&)>& fn,
    TableauStats* stats) {
  // Full scan over every fact of the instance, in sorted fact order —
  // exactly the pre-index behaviour, retained as the differential and
  // bench reference.
  if (stats != nullptr) ++stats->relation_scans;
  std::vector<const Fact*> candidates;
  for (const Fact& f : inst.facts()) {
    if (stats != nullptr) ++stats->guard_match_probes;
    if (f.rel == guard.rel) candidates.push_back(&f);
  }
  return RunGuardMatch(guard, candidates, env, fn, stats);
}

// --- Construction --------------------------------------------------------------

Tableau::Tableau(const RuleSet& rules, TableauBudget budget,
                 bool naive_matching, Scheduler* scheduler)
    : rules_(rules),
      budget_(budget),
      naive_(naive_matching),
      scheduler_(Scheduler::Resolve(scheduler)) {
  // Precompute every environment size once: the hot loops then allocate
  // exactly-sized environments instead of re-deriving max-vars and
  // resizing per obligation (the old EnsureEnv churn).
  for (const GuardedRule& r : rules_.rules) {
    uint32_t rule_need = r.num_vars;
    for (const HeadAlt& alt : r.head) {
      for (const ExistsUnit& e : alt.exists) {
        uint32_t mv = 0;
        mv = MaxVarIn(e.guard, mv);
        for (const Lit& l : e.lits) mv = MaxVarIn(l, mv);
        for (uint32_t q : e.qvars) mv = std::max(mv, q);
        uint32_t need = std::max(r.num_vars, mv + 1);
        env_need_[&e] = need;
        rule_need = std::max(rule_need, need);
      }
      for (const ForallUnit& u : alt.foralls) {
        uint32_t mv = 0;
        mv = MaxVarIn(u.guard, mv);
        for (const Lit& l : u.clause.lits) mv = MaxVarIn(l, mv);
        for (uint32_t q : u.qvars) mv = std::max(mv, q);
        uint32_t need = std::max(r.num_vars, mv + 1);
        env_need_[&u] = need;
        rule_need = std::max(rule_need, need);
      }
      for (const CountUnit& c : alt.counts) {
        uint32_t mv = c.qvar;
        mv = MaxVarIn(c.guard, mv);
        for (const Lit& l : c.lits) mv = MaxVarIn(l, mv);
        uint32_t need = std::max(r.num_vars, mv + 1);
        env_need_[&c] = need;
        rule_need = std::max(rule_need, need);
      }
    }
    env_need_[&r] = rule_need;
  }
  // Nogood-learning eligibility: explanation-based conflict clauses are
  // sound exactly when taken choices only ever *add* monotone commitments
  // over stable element identities. That rules out anything that merges
  // elements (functionality constraints, positive head/exists equalities —
  // merges rewrite facts and re-key bindings) and anything whose firing
  // justification is non-monotone (negative atom body literals), plus the
  // pinned unit kinds (foralls, counts) whose obligations the conflict
  // explainer does not model. This is the disjunctive-datalog fragment of
  // the Bienvenu–ten Cate–Lutz–Wolter CSP view — it covers the pigeonhole
  // and bouquet families. See DESIGN.md §Trail engine.
  nogood_eligible_ = rules_.functional.empty();
  for (const GuardedRule& r : rules_.rules) {
    for (const Lit& l : r.body) {
      if (!l.is_eq && !l.positive) nogood_eligible_ = false;
    }
    for (const HeadAlt& alt : r.head) {
      if (!alt.foralls.empty() || !alt.counts.empty()) {
        nogood_eligible_ = false;
      }
      for (const Lit& l : alt.lits) {
        if (l.is_eq && l.positive) nogood_eligible_ = false;
      }
      for (const ExistsUnit& e : alt.exists) {
        for (const Lit& l : e.lits) {
          if (l.is_eq && l.positive) nogood_eligible_ = false;
        }
      }
    }
  }
}

uint32_t Tableau::EnvNeed(const void* unit) const {
  auto it = env_need_.find(unit);
  assert(it != env_need_.end());
  return it->second;
}

bool Tableau::GuardMatch(
    const Lit& guard, const Instance& inst, const std::vector<int64_t>& env,
    const std::function<bool(const std::vector<int64_t>&)>& fn,
    TableauStats* stats) {
  return naive_ ? ForEachGuardMatchNaive(guard, inst, env, fn, stats)
                : ForEachGuardMatch(guard, inst, env, fn, stats);
}

// --- Branch helpers ------------------------------------------------------------

Instance* TableauBranch::Mut(TableauStats* stats) {
  // Copy-on-write: forked branches share the parent's Instance (and its
  // fact indexes); the first mutation after a fork clones it. Branches
  // that close before mutating — or deterministic chains, whose sole
  // successor inherits the parent's reference — never pay for a copy.
  // This is also the parallel-safety story: a use_count of 1 proves this
  // branch task owns the instance outright, and a shared instance is only
  // ever read (any thread that needs to write clones first).
  if (inst.use_count() > 1) {
    if (stats != nullptr) ++stats->cow_copies;
    inst = std::make_shared<Instance>(*inst);
  }
  return inst.get();
}

ElemId TableauBranch::Find(ElemId e) const {
  while (e < canon.size() && canon[e] != e) e = canon[e];
  return e;
}

// --- Small predicates ----------------------------------------------------------

bool Tableau::LitHolds(const Lit& lit, const std::vector<ElemId>& env,
                       const Instance& inst) const {
  if (lit.is_eq) {
    bool eq = env[lit.args[0]] == env[lit.args[1]];
    return lit.positive ? eq : !eq;
  }
  std::vector<ElemId> args;
  args.reserve(lit.args.size());
  for (uint32_t v : lit.args) args.push_back(env[v]);
  bool present = inst.HasFact(lit.rel, args);
  return lit.positive ? present : !present;
}

bool Tableau::Diseq(const Branch& branch, ElemId a, ElemId b) const {
  // Resolve through the merge union-find first: ids captured before a
  // merge must compare as their survivors, never as raw (possibly dead)
  // ids — see the count-unit witness regression in the tests.
  a = branch.Find(a);
  b = branch.Find(b);
  if (a == b) return false;
  // Distinct constants are always unequal (standard names).
  if (!branch.I().IsNull(a) && !branch.I().IsNull(b)) return true;
  return branch.diseq.count(DiseqPack(a, b)) > 0;
}

bool Tableau::PinnedAlready(const Branch& branch, const GuardedRule* rule,
                            size_t alt_index, size_t unit_index, bool is_count,
                            const std::vector<ElemId>& binding) const {
  // Hash-filter fast path: a missing hash proves the pin is absent. A
  // present hash is confirmed by the exact scan (collisions are harmless).
  if (branch.pin_filter.count(TableauPinHash(rule, alt_index, unit_index,
                                             is_count, binding)) == 0) {
    return false;
  }
  for (const Pinned& p : branch.pinned) {
    if (p.rule == rule && p.alt_index == alt_index &&
        p.unit_index == unit_index && p.is_count == is_count &&
        p.binding == binding) {
      return true;
    }
  }
  return false;
}

std::vector<ElemId> Tableau::CountWitnesses(const CountUnit& unit,
                                            const std::vector<ElemId>& binding,
                                            const Branch& branch,
                                            TableauStats* stats) {
  std::vector<ElemId> out;
  std::vector<int64_t> env(EnvNeed(&unit), -1);
  for (size_t i = 0; i < binding.size() && i < env.size(); ++i) {
    env[i] = static_cast<int64_t>(binding[i]);
  }
  env[unit.qvar] = -1;
  std::vector<ElemId> full;
  GuardMatch(unit.guard, branch.I(), env,
             [&](const std::vector<int64_t>& ext) {
               if (ext[unit.qvar] < 0) return false;
               ElemId y = static_cast<ElemId>(ext[unit.qvar]);
               if (std::find(out.begin(), out.end(), y) != out.end()) {
                 return false;
               }
               full.assign(ext.size(), 0);
               for (size_t i = 0; i < ext.size(); ++i) {
                 full[i] = ext[i] < 0 ? 0 : static_cast<ElemId>(ext[i]);
               }
               for (const Lit& l : unit.lits) {
                 if (!LitHolds(l, full, branch.I())) return false;
               }
               out.push_back(y);
               return false;
             },
             stats);
  return out;
}

bool Tableau::ForallUnitSatisfiedAt(const ForallUnit& unit,
                                    const std::vector<ElemId>& binding,
                                    const std::vector<ElemId>& match,
                                    const Branch& branch) const {
  (void)binding;
  for (const Lit& l : unit.clause.lits) {
    if (LitHolds(l, match, branch.I())) return true;
  }
  return false;
}

bool Tableau::AltSatisfied(const HeadAlt& alt,
                           const std::vector<ElemId>& binding,
                           const Branch& branch, TableauStats* stats) {
  if (alt.is_false) return false;
  for (const Lit& l : alt.lits) {
    if (!LitHolds(l, binding, branch.I())) return false;
  }
  std::vector<ElemId> full;
  for (const ExistsUnit& e : alt.exists) {
    std::vector<int64_t> partial(EnvNeed(&e), -1);
    for (size_t i = 0; i < binding.size() && i < partial.size(); ++i) {
      partial[i] = static_cast<int64_t>(binding[i]);
    }
    for (uint32_t q : e.qvars) partial[q] = -1;
    bool found =
        GuardMatch(e.guard, branch.I(), partial,
                   [&](const std::vector<int64_t>& ext) {
                     full.assign(ext.size(), 0);
                     for (size_t i = 0; i < ext.size(); ++i) {
                       if (ext[i] < 0) return false;  // unbound var in lits
                       full[i] = static_cast<ElemId>(ext[i]);
                     }
                     for (const Lit& l : e.lits) {
                       if (!LitHolds(l, full, branch.I())) return false;
                     }
                     return true;  // witness found; stop enumerating
                   },
                   stats);
    if (!found) return false;
  }
  // Universal and at-most units count as satisfied only when committed
  // (pinned); the pin is then enforced by its own obligations.
  // Here we conservatively require that such units are pinned; the caller
  // performs that check (see the rule-instance loop in FindObligation).
  return true;
}

// --- Obligation discovery ------------------------------------------------------

std::optional<Tableau::Obligation> Tableau::FindObligation(
    const Branch& branch, TableauStats* stats) {
  // 1. Functionality merges (deterministic). One hash pass over the
  // per-relation index instead of the old quadratic pair scan.
  for (const FunctionalityConstraint& fc : rules_.functional) {
    std::unordered_map<ElemId, ElemId> val_of;
    for (const Fact* f : branch.I().FactsOfPtr(fc.rel)) {
      ElemId key = fc.inverse ? f->args[1] : f->args[0];
      ElemId val = fc.inverse ? f->args[0] : f->args[1];
      auto [it, fresh] = val_of.emplace(key, val);
      if (!fresh && it->second != val) {
        Obligation ob;
        ob.kind = Obligation::Kind::kMergeFunc;
        ob.merge_a = it->second;
        ob.merge_b = val;
        return ob;
      }
    }
  }
  // 2. Pinned universal units with an unsatisfied match.
  for (const Pinned& p : branch.pinned) {
    if (p.is_count) continue;
    const ForallUnit& unit = p.rule->head[p.alt_index].foralls[p.unit_index];
    std::vector<int64_t> env(EnvNeed(&unit), -1);
    for (size_t i = 0; i < p.binding.size() && i < env.size(); ++i) {
      env[i] = static_cast<int64_t>(p.binding[i]);
    }
    for (uint32_t q : unit.qvars) env[q] = -1;
    std::optional<Obligation> found;
    GuardMatch(unit.guard, branch.I(), env,
               [&](const std::vector<int64_t>& ext) {
                 std::vector<ElemId> full(ext.size(), 0);
                 for (size_t i = 0; i < ext.size(); ++i) {
                   full[i] = ext[i] < 0 ? 0 : static_cast<ElemId>(ext[i]);
                 }
                 if (!ForallUnitSatisfiedAt(unit, p.binding, full, branch)) {
                   Obligation ob;
                   ob.kind = Obligation::Kind::kPinForall;
                   ob.pin = p;  // by value: see Obligation::pin
                   ob.match = std::move(full);
                   found = std::move(ob);
                   return true;  // first unsatisfied match suffices
                 }
                 return false;
               },
               stats);
    if (found) return found;
  }
  // 3. Pinned at-most units with an overflow.
  for (const Pinned& p : branch.pinned) {
    if (!p.is_count) continue;
    const CountUnit& unit = p.rule->head[p.alt_index].counts[p.unit_index];
    std::vector<ElemId> witnesses =
        CountWitnesses(unit, p.binding, branch, stats);
    if (witnesses.size() > unit.n) {
      Obligation ob;
      ob.kind = Obligation::Kind::kPinAtMost;
      ob.pin = p;  // by value: see Obligation::pin
      ob.witnesses = std::move(witnesses);
      return ob;
    }
  }
  // 4. Unsatisfied rule instances. Fail-first ordering: among all pending
  // rule instances, pick the one whose binding involves the oldest
  // elements (smallest maximum element id). This surfaces contradictions
  // among the input constants before the search wanders off expanding
  // obligations of freshly created nulls — essential on ontologies whose
  // chase is infinite (e.g. the CSP encodings of Theorem 8).
  std::optional<Obligation> best;
  ElemId best_key = 0;
  auto consider = [&](Obligation ob) {
    ElemId key = 0;
    for (ElemId e : ob.binding) key = std::max(key, e);
    if (!best || key < best_key) {
      best_key = key;
      best = std::move(ob);
    }
  };
  for (const GuardedRule& rule : rules_.rules) {
    auto instance_satisfied = [&](const std::vector<ElemId>& binding) {
      // A rule instance with a failing body literal is vacuously satisfied.
      for (const Lit& l : rule.body) {
        if (!LitHolds(l, binding, branch.I())) return true;
      }
      for (size_t ai = 0; ai < rule.head.size(); ++ai) {
        const HeadAlt& alt = rule.head[ai];
        if (!AltSatisfied(alt, binding, branch, stats)) continue;
        bool pins_ok = true;
        for (size_t ui = 0; ui < alt.foralls.size() && pins_ok; ++ui) {
          if (!PinnedAlready(branch, &rule, ai, ui, false, binding)) {
            pins_ok = false;
          }
        }
        for (size_t ui = 0; ui < alt.counts.size() && pins_ok; ++ui) {
          if (alt.counts[ui].at_least) {
            // At-least satisfaction was not checked by AltSatisfied; do it
            // here: enough pairwise-distinct witnesses.
            if (CountWitnesses(alt.counts[ui], binding, branch, stats)
                    .size() < alt.counts[ui].n) {
              pins_ok = false;
            }
          } else if (!PinnedAlready(branch, &rule, ai, ui, true, binding)) {
            pins_ok = false;
          }
        }
        if (pins_ok) return true;
      }
      return false;
    };

    if (rule.eq_guard) {
      for (ElemId e = 0; e < branch.I().NumElements(); ++e) {
        if (branch.IsDead(e)) continue;
        if (best && e >= best_key) break;  // can't improve
        std::vector<ElemId> binding(rule.num_vars, e);
        if (!instance_satisfied(binding)) {
          Obligation ob;
          ob.kind = Obligation::Kind::kRule;
          ob.rule = &rule;
          ob.binding = binding;
          consider(std::move(ob));
          break;  // later elements of this rule can't beat this binding
        }
      }
    } else {
      // Driver-led greedy join ordering: the guard binds every rule
      // variable, but when some atom that every *unsatisfied* instance of
      // the rule must make true has a shorter fact list than the guard
      // relation, enumerating that atom first (one relation scan) and
      // finishing the guard with its positions bound turns the guard
      // lookup into an indexed (rel, pos, elem) probe per driver fact.
      // Two sources of such atoms:
      //  - positive body literals: an instance with a failing body literal
      //    is vacuously satisfied;
      //  - head alternatives that are a single negative atom (the normal
      //    form of B(x) -> ... implications, e.g. the bouquet ontology's
      //    R(x,y) -> ¬B(x) ∨ B(y)): such an alternative is *satisfied* by
      //    LitHolds whenever its atom is absent, so unsatisfied instances
      //    have the atom present.
      // Either way, restricting enumeration to bindings that extend a
      // driver fact skips only non-obligations (and an empty driver list
      // means every instance of the rule is satisfied). This is what fixes
      // the `index_lookups: 0` cliff on the bouquet family, whose guard
      // relation is huge and driving atom tiny.
      const Lit* driver = nullptr;
      Lit alt_driver;  // positive copy of a winning head-alt literal
      if (!naive_) {
        size_t best_size = branch.I().FactsOfPtr(rule.guard.rel).size();
        auto consider_driver = [&](const Lit& l) {
          for (uint32_t v : l.args) {
            if (v >= rule.num_vars) return false;
          }
          size_t sz = branch.I().FactsOfPtr(l.rel).size();
          if (sz > best_size) return false;  // <=: prefer drivers on ties
          best_size = sz;
          return true;
        };
        for (const Lit& l : rule.body) {
          if (l.is_eq || !l.positive) continue;
          if (consider_driver(l)) driver = &l;
        }
        for (const HeadAlt& alt : rule.head) {
          if (alt.is_false || alt.lits.size() != 1 || !alt.exists.empty() ||
              !alt.foralls.empty() || !alt.counts.empty()) {
            continue;
          }
          const Lit& l = alt.lits[0];
          if (l.is_eq || l.positive) continue;
          if (consider_driver(l)) {
            alt_driver = l;
            alt_driver.positive = true;
            driver = &alt_driver;
          }
        }
      }
      std::vector<int64_t> env(rule.num_vars, -1);
      auto on_guard_ext = [&](const std::vector<int64_t>& ext) {
        std::vector<ElemId> binding(rule.num_vars, 0);
        ElemId key = 0;
        for (uint32_t v = 0; v < rule.num_vars; ++v) {
          if (ext[v] < 0) return false;  // guard must bind all
          binding[v] = static_cast<ElemId>(ext[v]);
          key = std::max(key, binding[v]);
        }
        if (best && key >= best_key) return false;
        if (!instance_satisfied(binding)) {
          Obligation ob;
          ob.kind = Obligation::Kind::kRule;
          ob.rule = &rule;
          ob.binding = std::move(binding);
          consider(std::move(ob));
        }
        return false;
      };
      if (driver != nullptr) {
        GuardMatch(*driver, branch.I(), env,
                   [&](const std::vector<int64_t>& denv) {
                     GuardMatch(rule.guard, branch.I(), denv, on_guard_ext,
                                stats);
                     return false;
                   },
                   stats);
      } else {
        GuardMatch(rule.guard, branch.I(), env, on_guard_ext, stats);
      }
    }
  }
  return best;
}

// --- Branch mutation -----------------------------------------------------------

bool Tableau::MergeElements(Branch* branch, ElemId a, ElemId b,
                            TableauStats* stats, BranchTrail* trail) {
  a = branch->Find(a);
  b = branch->Find(b);
  if (a == b) return true;
  if (Diseq(*branch, a, b)) return false;
  // Keep the constant, or the smaller id.
  ElemId keep = a, drop = b;
  if (branch->I().IsNull(keep) && !branch->I().IsNull(drop)) {
    std::swap(keep, drop);
  } else if (branch->I().IsNull(keep) == branch->I().IsNull(drop) &&
             drop < keep) {
    std::swap(keep, drop);
  }
  // Rewrite facts, via the per-element Gaifman index rather than a full
  // fact scan. The trail engine owns its instance outright (no Mut), and
  // records every fact move so the merge unwinds on pop.
  Instance* inst =
      trail != nullptr ? branch->inst.get() : branch->Mut(stats);
  std::vector<Fact> to_fix;
  for (const Fact* f : inst->FactsContainingPtr(drop)) to_fix.push_back(*f);
  for (const Fact& f : to_fix) {
    Fact g = f;
    for (ElemId& x : g.args) {
      if (x == drop) x = keep;
    }
    // A fact rewritten onto a forbidden commitment closes the branch (the
    // wholesale forbidden rebuild below only re-checks remapped entries,
    // so the untouched ones are caught here as facts move onto them).
    if (branch->forbidden.count(g)) return false;
    if (trail != nullptr) {
      trail->RemoveFact(f);
      trail->AddFact(g);
    } else {
      inst->RemoveFact(f);
      inst->AddFact(g);
    }
  }
  // Record the merge in the union-find.
  if (trail != nullptr) {
    trail->SetCanon(drop, keep);
  } else {
    if (branch->canon.size() <= drop) {
      size_t old = branch->canon.size();
      branch->canon.resize(drop + 1);
      for (size_t e = old; e < branch->canon.size(); ++e) {
        branch->canon[e] = static_cast<ElemId>(e);
      }
    }
    branch->canon[drop] = keep;
  }
  // Rewrite pins (and rebuild the hash filter when anything changed),
  // disequalities and forbidden facts.
  bool pins_changed = false;
  for (size_t pi = 0; pi < branch->pinned.size(); ++pi) {
    Pinned& p = branch->pinned[pi];
    bool hit = false;
    for (ElemId x : p.binding) {
      if (x == drop) hit = true;
    }
    if (!hit) continue;
    pins_changed = true;
    std::vector<ElemId> nb = p.binding;
    for (ElemId& x : nb) {
      if (x == drop) x = keep;
    }
    if (trail != nullptr) {
      trail->RewritePinBinding(pi, std::move(nb));
    } else {
      p.binding = std::move(nb);
    }
  }
  if (pins_changed) {
    branch->pin_filter.clear();
    for (const Pinned& p : branch->pinned) {
      branch->pin_filter.insert(TableauPinHash(p));
    }
  }
  if (!branch->diseq.empty()) {
    if (trail != nullptr) {
      // Per-pair remap of only the pairs touching `drop`: each move is two
      // trail entries, so the pop restores the set exactly. A partial
      // remap before a violation is fine — the closed branch gets popped.
      std::vector<uint64_t> touching;
      for (uint64_t pk : branch->diseq) {
        ElemId x = static_cast<ElemId>(pk >> 32);
        ElemId y = static_cast<ElemId>(pk & 0xFFFFFFFFu);
        if (x == drop || y == drop) touching.push_back(pk);
      }
      for (uint64_t pk : touching) {
        ElemId x = static_cast<ElemId>(pk >> 32);
        ElemId y = static_cast<ElemId>(pk & 0xFFFFFFFFu);
        if (x == drop) x = keep;
        if (y == drop) y = keep;
        if (x == y) return false;  // committed disequality violated
        trail->EraseDiseq(pk);
        trail->InsertDiseq(DiseqPack(x, y));
      }
    } else {
      std::unordered_set<uint64_t> remapped;
      remapped.reserve(branch->diseq.size());
      for (uint64_t pk : branch->diseq) {
        ElemId x = static_cast<ElemId>(pk >> 32);
        ElemId y = static_cast<ElemId>(pk & 0xFFFFFFFFu);
        if (x == drop) x = keep;
        if (y == drop) y = keep;
        if (x == y) return false;  // committed disequality violated
        remapped.insert(DiseqPack(x, y));
      }
      branch->diseq = std::move(remapped);
    }
  }
  if (!branch->forbidden.empty()) {
    if (trail != nullptr) {
      std::vector<Fact> touching;
      for (const Fact& f : branch->forbidden) {
        for (ElemId x : f.args) {
          if (x == drop) {
            touching.push_back(f);
            break;
          }
        }
      }
      for (const Fact& f : touching) {
        Fact g = f;
        for (ElemId& x : g.args) {
          if (x == drop) x = keep;
        }
        if (inst->HasFact(g)) return false;  // commitment violated
        trail->EraseForbidden(f);
        trail->InsertForbidden(std::move(g));
      }
    } else {
      std::set<Fact> new_forbidden;
      for (const Fact& f : branch->forbidden) {
        Fact g = f;
        for (ElemId& x : g.args) {
          if (x == drop) x = keep;
        }
        if (inst->HasFact(g)) return false;  // commitment violated
        new_forbidden.insert(std::move(g));
      }
      branch->forbidden = std::move(new_forbidden);
    }
  }
  return true;
}

bool Tableau::ApplyLits(Branch* branch, const std::vector<Lit>& lits,
                        std::vector<ElemId>* env, TableauStats* stats,
                        BranchTrail* trail, Clash* clash) {
  // First positive atoms, then equalities (merges), then checks. `clash`,
  // when non-null, receives the reason for an explainable closure (the
  // nogood learner turns it into conflict dependencies); merge failures
  // leave it kNone.
  for (const Lit& l : lits) {
    if (!l.is_eq && l.positive) {
      std::vector<ElemId> args;
      args.reserve(l.args.size());
      for (uint32_t v : l.args) args.push_back((*env)[v]);
      Fact f{l.rel, std::move(args)};
      if (branch->forbidden.count(f)) {
        if (clash != nullptr) {
          clash->kind = Clash::Kind::kForbidden;
          clash->fact = std::move(f);
        }
        return false;
      }
      if (trail != nullptr) {
        trail->AddFact(f);
      } else {
        branch->Mut(stats)->AddFact(f);
      }
    }
  }
  for (const Lit& l : lits) {
    if (l.is_eq && l.positive) {
      ElemId a = (*env)[l.args[0]];
      ElemId b = (*env)[l.args[1]];
      if (a == b) continue;
      if (!MergeElements(branch, a, b, stats, trail)) return false;
      // Canonicalize every env entry through the union-find.
      for (ElemId& x : *env) x = branch->Find(x);
    }
  }
  for (const Lit& l : lits) {
    if (l.is_eq && !l.positive) {
      ElemId a = branch->Find((*env)[l.args[0]]);
      ElemId b = branch->Find((*env)[l.args[1]]);
      if (a == b) {
        if (clash != nullptr) clash->kind = Clash::Kind::kNegEq;
        return false;
      }
      if (!Diseq(*branch, a, b)) {
        if (trail != nullptr) {
          trail->InsertDiseq(DiseqPack(a, b));
        } else {
          branch->diseq.insert(DiseqPack(a, b));
        }
      }
    } else if (!l.is_eq && !l.positive) {
      std::vector<ElemId> args;
      args.reserve(l.args.size());
      for (uint32_t v : l.args) args.push_back((*env)[v]);
      Fact f{l.rel, std::move(args)};
      if (branch->I().HasFact(f)) {
        if (clash != nullptr) {
          clash->kind = Clash::Kind::kNegAtom;
          clash->fact = std::move(f);
        }
        return false;
      }
      // Committed negative fact.
      if (trail != nullptr) {
        trail->InsertForbidden(std::move(f));
      } else {
        branch->forbidden.insert(std::move(f));
      }
    }
  }
  return true;
}

// --- Expansion -----------------------------------------------------------------

std::vector<size_t> Tableau::ChoiceIndices(const Obligation& ob) const {
  std::vector<size_t> out;
  switch (ob.kind) {
    case Obligation::Kind::kMergeFunc:
      out.push_back(0);
      return out;
    case Obligation::Kind::kPinForall: {
      const ForallUnit& unit =
          ob.pin->rule->head[ob.pin->alt_index].foralls[ob.pin->unit_index];
      for (size_t li = 0; li < unit.clause.lits.size(); ++li) {
        out.push_back(li);
      }
      return out;
    }
    case Obligation::Kind::kPinAtMost: {
      size_t n = ob.witnesses.size();
      for (size_t k = 0; k < n * (n - 1) / 2; ++k) out.push_back(k);
      return out;
    }
    case Obligation::Kind::kRule: {
      if (forced_ != nullptr) {
        uint32_t ri = static_cast<uint32_t>(ob.rule - rules_.rules.data());
        for (const NogoodDecision& d : forced_->decisions) {
          if (d.rule_index == ri && d.binding == ob.binding) {
            // Forced replay: this rule instance may only take the nogood's
            // recorded alternative.
            if (d.alt_index < ob.rule->head.size() &&
                !ob.rule->head[d.alt_index].is_false) {
              out.push_back(d.alt_index);
            }
            return out;
          }
        }
      }
      for (size_t ai = 0; ai < ob.rule->head.size(); ++ai) {
        if (!ob.rule->head[ai].is_false) out.push_back(ai);
      }
      return out;
    }
  }
  return out;
}

bool Tableau::ApplyChoice(Branch* branch, const Obligation& ob, size_t ci,
                          TableauStats* stats, BranchTrail* trail,
                          Clash* clash) {
  switch (ob.kind) {
    case Obligation::Kind::kMergeFunc:
      return MergeElements(branch, ob.merge_a, ob.merge_b, stats, trail);
    case Obligation::Kind::kPinForall: {
      const ForallUnit& unit =
          ob.pin->rule->head[ob.pin->alt_index].foralls[ob.pin->unit_index];
      std::vector<ElemId> env = ob.match;
      return ApplyLits(branch, {unit.clause.lits[ci]}, &env, stats, trail,
                       clash);
    }
    case Obligation::Kind::kPinAtMost: {
      // Decode choice `ci` back to the witness pair (i, j), i < j, in the
      // same row-major order ChoiceIndices enumerates.
      size_t n = ob.witnesses.size();
      size_t k = ci, i = 0;
      while (k >= n - 1 - i) {
        k -= n - 1 - i;
        ++i;
      }
      size_t j = i + 1 + k;
      return MergeElements(branch, ob.witnesses[i], ob.witnesses[j], stats,
                           trail);
    }
    case Obligation::Kind::kRule: {
      const GuardedRule& rule = *ob.rule;
      const HeadAlt& alt = rule.head[ci];
      Branch& next = *branch;
      // Fresh nulls: the trail engine records element creation for the
      // pop; the COW engines clone-on-write as before.
      auto add_null = [&]() {
        ++next.fresh_nulls;
        return trail != nullptr ? trail->AddNull()
                                : next.Mut(stats)->AddNull();
      };
      std::vector<ElemId> env = ob.binding;
      bool alive = ApplyLits(&next, alt.lits, &env, stats, trail, clash);
      if (alive) env.resize(EnvNeed(&rule), 0);
      // Existential units: fresh witnesses.
      for (size_t ei = 0; ei < alt.exists.size() && alive; ++ei) {
        const ExistsUnit& e = alt.exists[ei];
        if (next.fresh_nulls + e.qvars.size() > budget_.max_fresh_nulls) {
          alive = false;
          stats->budget_hit = true;
          break;
        }
        for (uint32_t q : e.qvars) env[q] = add_null();
        std::vector<Lit> to_apply;
        to_apply.push_back(e.guard);
        for (const Lit& l : e.lits) to_apply.push_back(l);
        alive = ApplyLits(&next, to_apply, &env, stats, trail, clash);
      }
      // Universal and counting units.
      for (size_t ui = 0; ui < alt.foralls.size() && alive; ++ui) {
        Pinned p;
        p.rule = &rule;
        p.alt_index = ci;
        p.unit_index = ui;
        p.is_count = false;
        p.binding.assign(env.begin(), env.begin() + rule.num_vars);
        if (trail != nullptr) {
          trail->PushPin(std::move(p));
        } else {
          next.pin_filter.insert(TableauPinHash(p));
          next.pinned.push_back(std::move(p));
        }
      }
      for (size_t ui = 0; ui < alt.counts.size() && alive; ++ui) {
        const CountUnit& c = alt.counts[ui];
        std::vector<ElemId> binding(env.begin(),
                                    env.begin() + rule.num_vars);
        if (c.at_least) {
          std::vector<ElemId> have = CountWitnesses(c, binding, next, stats);
          while (alive && have.size() < c.n) {
            if (next.fresh_nulls + 1 > budget_.max_fresh_nulls) {
              alive = false;
              stats->budget_hit = true;
              break;
            }
            std::vector<ElemId> wenv = binding;
            wenv.resize(EnvNeed(&c), 0);
            ElemId fresh = add_null();
            wenv[c.qvar] = fresh;
            std::vector<Lit> to_apply;
            to_apply.push_back(c.guard);
            for (const Lit& l : c.lits) to_apply.push_back(l);
            alive = ApplyLits(&next, to_apply, &wenv, stats, trail, clash);
            if (!alive) break;
            // The witness (or a previous one) may have been merged away
            // while its defining literals were applied; resolve before
            // committing distinctness, else the disequality would attach
            // to a dead id and silently stop constraining the branch.
            ElemId fresh_c = next.Find(fresh);
            bool collided = false;
            for (ElemId& w : have) {
              w = next.Find(w);
              if (w == fresh_c) collided = true;
            }
            if (collided) {
              // Forced equal to an existing witness: the unit's demand
              // for pairwise-distinct witnesses cannot be met this way.
              // Not a logical clash for the learner (kNone).
              alive = false;
              break;
            }
            // Commit pairwise disequality with previous witnesses.
            for (ElemId w : have) {
              if (!Diseq(next, fresh_c, w)) {
                if (trail != nullptr) {
                  trail->InsertDiseq(DiseqPack(fresh_c, w));
                } else {
                  next.diseq.insert(DiseqPack(fresh_c, w));
                }
              }
            }
            have.push_back(fresh_c);
          }
        } else {
          Pinned p;
          p.rule = &rule;
          p.alt_index = ci;
          p.unit_index = ui;
          p.is_count = true;
          p.binding = binding;
          if (trail != nullptr) {
            trail->PushPin(std::move(p));
          } else {
            next.pin_filter.insert(TableauPinHash(p));
            next.pinned.push_back(std::move(p));
          }
        }
      }
      return alive;
    }
  }
  return false;
}

std::vector<Tableau::Branch> Tableau::Expand(Branch branch,
                                             const Obligation& ob,
                                             TableauStats* stats) {
  // `branch` is consumed: every choice but the last forks a COW copy; the
  // last reuses the storage, so a deterministic chase chain keeps mutating
  // one instance in place. The trail engine never calls Expand — it walks
  // ChoiceIndices/ApplyChoice directly with push/pop instead of copies.
  std::vector<Branch> out;
  std::vector<size_t> choices = ChoiceIndices(ob);
  for (size_t i = 0; i < choices.size(); ++i) {
    Branch next;
    if (i + 1 == choices.size()) {
      next = std::move(branch);
    } else {
      next = branch;
    }
    if (ApplyChoice(&next, ob, choices[i], stats, /*trail=*/nullptr,
                    /*clash=*/nullptr)) {
      out.push_back(std::move(next));
    }
  }
  return out;
}

// --- Nogood learning (trail engine) --------------------------------------------

// Explanation-based conflict learning over the trail search. Each tracked
// disjunct decision "rule instance R(b~) took alternative a" gets a SAT
// variable; every fact derived during the search carries the set of
// decisions it depends on (deps of the firing's guard/body facts plus the
// decision taken, if any). A logically closed branch (Clash != kNone)
// yields the conflict clause ¬(d1 ∧ ... ∧ dk) over the union of the firing
// deps and the clashing fact's deps, which is fed to the in-repo CDCL
// solver; sibling choices whose decision set already falsifies a learned
// clause (detected by unit propagation under assumptions) are pruned
// before expansion.
//
// Soundness (see DESIGN.md §Trail engine): in the eligible fragment —
// monotone fact growth, no merges — a fact with deps D is present, up to a
// uniform renaming of fresh nulls to witnesses, in EVERY model of the
// input and ontology in which the decisions of D hold, and a forbidden
// commitment with deps D is absent from every such model. A clash between
// the two therefore proves no model satisfies D: no saturated branch can
// extend that decision set, anywhere in the tree. Decisions whose binding
// touches a fresh null are untracked (their identity is not stable across
// subtrees); any dependence on one poisons the clause, which is then not
// learned.
struct Tableau::NogoodCtx {
  using DepSet = std::vector<uint32_t>;  // sorted decision-stack indices
  static constexpr uint32_t kUnknownDep = UINT32_MAX;
  static constexpr size_t kMaxStoredNogoods = 4096;

  struct Decision {
    NogoodDecision d;
    bool tracked = false;
    uint32_t var = 0;  // SAT variable, when tracked
  };

  struct LevelMark {
    size_t num_decisions;
    size_t fact_log_size;
  };

  explicit NogoodCtx(size_t input_elems) : input_elems(input_elems) {}

  // Elements < input_elems existed before the search; bindings over them
  // are stable across the whole tree (no merges in the eligible fragment),
  // so decisions on them are nameable in clauses.
  size_t input_elems;
  SatSolver solver{Cnf{}};
  std::vector<Decision> decisions;  // the current decision stack
  std::unordered_map<std::string, uint32_t> var_of;
  // First-derivation dependencies of facts / forbidden commitments on the
  // current path. A re-derivation keeps the first deps (the fact is
  // genuinely implied by them); popped derivations are erased via the log.
  std::map<Fact, DepSet> fact_deps;
  std::map<Fact, DepSet> forbid_deps;
  std::vector<LevelMark> levels;
  std::vector<std::pair<Fact, bool>> fact_log;  // (fact, is_forbid)
  std::vector<Nogood> learned;
  std::set<std::vector<uint32_t>> clause_seen;
  size_t num_clauses = 0;

  static DepSet Normalize(DepSet s) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  }

  static std::string KeyOf(uint32_t rule_index,
                           const std::vector<ElemId>& binding,
                           uint32_t alt_index) {
    std::string k = std::to_string(rule_index);
    k.push_back('|');
    for (ElemId e : binding) {
      k += std::to_string(e);
      k.push_back(',');
    }
    k.push_back('#');
    k += std::to_string(alt_index);
    return k;
  }

  uint32_t Intern(uint32_t rule_index, const std::vector<ElemId>& binding,
                  uint32_t alt_index) {
    auto [it, fresh] =
        var_of.emplace(KeyOf(rule_index, binding, alt_index), 0);
    if (fresh) it->second = solver.NewVar();
    return it->second;
  }

  void PushLevel() { levels.push_back({decisions.size(), fact_log.size()}); }

  void PopLevel() {
    LevelMark m = levels.back();
    levels.pop_back();
    while (fact_log.size() > m.fact_log_size) {
      auto& [f, is_forbid] = fact_log.back();
      (is_forbid ? forbid_deps : fact_deps).erase(f);
      fact_log.pop_back();
    }
    decisions.resize(m.num_decisions);
  }

  void PushDecision(uint32_t rule_index, const std::vector<ElemId>& binding,
                    uint32_t alt_index) {
    Decision dec;
    dec.d.rule_index = rule_index;
    dec.d.binding = binding;
    dec.d.alt_index = alt_index;
    dec.tracked = true;
    for (ElemId e : binding) {
      if (e >= input_elems) dec.tracked = false;  // fresh-null binding
    }
    if (dec.tracked) dec.var = Intern(rule_index, binding, alt_index);
    decisions.push_back(std::move(dec));
  }

  // Non-kRule forks never occur in the eligible fragment; kept defensive.
  void PushOpaqueDecision() { decisions.push_back(Decision{}); }

  // Dependencies of firing `ob`: the union of the recorded deps of its
  // guard fact and positive body atom facts (a fact with no entry is an
  // input fact — empty deps). Non-kRule obligations are unexplainable.
  DepSet ContextDeps(const Obligation& ob) const {
    if (ob.kind != Obligation::Kind::kRule) return {kUnknownDep};
    DepSet out;
    auto add_fact_deps = [&](const Lit& l) {
      Fact f;
      f.rel = l.rel;
      f.args.reserve(l.args.size());
      for (uint32_t v : l.args) f.args.push_back(ob.binding[v]);
      auto it = fact_deps.find(f);
      if (it == fact_deps.end()) return;
      for (uint32_t d : it->second) out.push_back(d);
    };
    if (!ob.rule->eq_guard) add_fact_deps(ob.rule->guard);
    for (const Lit& l : ob.rule->body) {
      if (l.is_eq) continue;
      if (!l.positive) {
        out.push_back(kUnknownDep);  // ineligible anyway; defensive
        continue;
      }
      add_fact_deps(l);
    }
    return Normalize(std::move(out));
  }

  // Adds the just-pushed decision (stack top) to a firing's dep set.
  DepSet WithCurrentDecision(DepSet deps) const {
    const Decision& top = decisions.back();
    deps.push_back(top.tracked
                       ? static_cast<uint32_t>(decisions.size() - 1)
                       : kUnknownDep);
    return Normalize(std::move(deps));
  }

  // Attributes everything a successful firing added (trail entries from
  // `mark` on) to `deps`: new facts and new forbidden commitments.
  void RecordFiring(const BranchTrail& trail, size_t mark,
                    const DepSet& deps) {
    const std::vector<TrailEntry>& es = trail.entries();
    for (size_t i = mark; i < es.size(); ++i) {
      const TrailEntry& e = es[i];
      if (e.kind == TrailEntry::Kind::kFactAdded) {
        auto [it, fresh] = fact_deps.emplace(e.fact, deps);
        if (fresh) fact_log.emplace_back(e.fact, false);
      } else if (e.kind == TrailEntry::Kind::kForbidInserted) {
        auto [it, fresh] = forbid_deps.emplace(e.fact, deps);
        if (fresh) fact_log.emplace_back(e.fact, true);
      }
    }
  }

  // Would taking `cand` on top of the current decision stack replay a
  // learned conflict? Pure unit propagation under assumptions — no search.
  bool WouldPrune(const NogoodDecision& cand) {
    if (num_clauses == 0) return false;
    for (ElemId e : cand.binding) {
      if (e >= input_elems) return false;  // untracked candidate
    }
    std::vector<SatLit> assumptions;
    for (const Decision& d : decisions) {
      if (d.tracked) assumptions.push_back(SatLit::Pos(d.var));
    }
    assumptions.push_back(
        SatLit::Pos(Intern(cand.rule_index, cand.binding, cand.alt_index)));
    return solver.AssumptionsConflict(assumptions);
  }

  // Learns the conflict clause ¬(d1 ∧ ... ∧ dk) for dep set `deps`. A
  // sentinel or untracked dependency poisons the clause (skip).
  void Learn(const DepSet& deps, uint64_t depth, TableauStats* stats) {
    std::vector<uint32_t> vars;
    Nogood ng;
    ng.depth = depth;
    for (uint32_t d : deps) {
      if (d == kUnknownDep) return;
      const Decision& dec = decisions[d];
      if (!dec.tracked) return;
      vars.push_back(dec.var);
      ng.decisions.push_back(dec.d);
    }
    std::vector<uint32_t> key = vars;
    std::sort(key.begin(), key.end());
    key.erase(std::unique(key.begin(), key.end()), key.end());
    if (!clause_seen.insert(key).second) return;  // already learned
    std::vector<SatLit> clause;
    clause.reserve(key.size());
    for (uint32_t v : key) clause.push_back(SatLit::Neg(v));
    solver.AddClauseIncremental(std::move(clause));
    ++num_clauses;
    if (stats != nullptr) ++stats->nogoods_learned;
    if (learned.size() < kMaxStoredNogoods) learned.push_back(std::move(ng));
  }

  // Conflict clause of a clashing firing: the firing's own deps plus the
  // deps of whatever it clashed against.
  void LearnFromClash(const DepSet& fire_deps, const Clash& clash,
                      uint64_t depth, TableauStats* stats) {
    DepSet deps = fire_deps;
    switch (clash.kind) {
      case Clash::Kind::kNone:
        return;  // budget cut, merge conflict, witness collision: no clause
      case Clash::Kind::kForbidden: {
        auto it = forbid_deps.find(clash.fact);
        // A missing entry means the commitment came from this same firing
        // (its deps are fire_deps, already included) — or from the input,
        // which commits nothing: empty either way.
        if (it != forbid_deps.end()) {
          deps.insert(deps.end(), it->second.begin(), it->second.end());
        }
        break;
      }
      case Clash::Kind::kNegAtom: {
        auto it = fact_deps.find(clash.fact);
        // Missing = input fact (no deps) or added by this firing.
        if (it != fact_deps.end()) {
          deps.insert(deps.end(), it->second.begin(), it->second.end());
        }
        break;
      }
      case Clash::Kind::kNegEq:
        // x != y under a binding with x == y: the firing alone clashes.
        break;
    }
    Learn(Normalize(std::move(deps)), depth, stats);
  }
};

// --- Model reporting -----------------------------------------------------------

Instance Tableau::CompactModel(const Branch& branch) const {
  // Drop merged-away elements before reporting: the model's element ids
  // are dense, constants keep their names, nulls are renumbered.
  Instance model(branch.I().symbols());
  std::vector<int64_t> remap(branch.I().NumElements(), -1);
  for (ElemId e = 0; e < branch.I().NumElements(); ++e) {
    if (branch.IsDead(e)) continue;
    remap[e] = branch.I().IsNull(e)
                   ? static_cast<int64_t>(model.AddNull())
                   : static_cast<int64_t>(
                         model.AddConstant(branch.I().ElemName(e)));
  }
  for (const Fact& f : branch.I().facts()) {
    Fact g = f;
    for (ElemId& x : g.args) x = static_cast<ElemId>(remap[x]);
    model.AddFact(g);
  }
  return model;
}

void Tableau::RecordModel(const Branch& branch, const Instance& model) {
  // CompactModel shifts every id past a merged-away element, so a model in
  // which an input element died no longer keeps the input's ids: decline
  // it rather than let callers read it under the wrong elements.
  for (ElemId e = 0; e < input_elements_; ++e) {
    if (branch.IsDead(e)) {
      last_model_.reset();
      return;
    }
  }
  last_model_ = model;
}

// --- Serial search (the differential reference) --------------------------------

bool Tableau::Explore(Branch branch, uint64_t depth,
                      const std::function<bool(const Instance&)>& fn,
                      bool* stop) {
  ++stats_.branches_opened;
  if (depth > stats_.peak_branch_depth) stats_.peak_branch_depth = depth;
  for (;;) {
    if (*stop) return true;
    if (prune_ != nullptr && (*prune_)(branch.I())) {
      // This branch can never become a rejecting model; abandon it.
      ++stats_.branches_saturated;
      branch_terminations_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    // The atomics replicate the old per-member accounting exactly at one
    // thread: fetch_add returns the pre-increment value the old
    // `stats_.steps++ > max_steps` compared, and branch_terminations_
    // tracks branches_closed + branches_saturated.
    ++stats_.steps;
    if (steps_used_.fetch_add(1, std::memory_order_relaxed) >
            budget_.max_steps ||
        branch_terminations_.load(std::memory_order_relaxed) >
            budget_.max_branches) {
      stats_.budget_hit = true;
      return false;
    }
    std::optional<Obligation> ob = FindObligation(branch, &stats_);
    if (!ob) {
      ++stats_.branches_saturated;
      branch_terminations_.fetch_add(1, std::memory_order_relaxed);
      Instance model = CompactModel(branch);
      RecordModel(branch, model);
      if (fn(model)) {
        *stop = true;
      }
      return true;
    }
    std::vector<Branch> successors = Expand(std::move(branch), *ob, &stats_);
    if (successors.empty()) {
      ++stats_.branches_closed;
      branch_terminations_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (successors.size() == 1) {
      branch = std::move(successors[0]);
      continue;
    }
    bool complete = true;
    for (Branch& next : successors) {
      if (*stop) break;
      if (!Explore(std::move(next), depth + 1, fn, stop)) complete = false;
    }
    return complete;
  }
}

// --- Trail-based destructive search --------------------------------------------

bool Tableau::ExploreTrail(Branch* branch, BranchTrail* trail, NogoodCtx* ng,
                           uint64_t depth,
                           const std::function<bool(const Instance&)>& fn,
                           bool* stop) {
  // The serial Explore loop, re-shaped for one mutable branch: a
  // deterministic chain mutates in place (no level), a disjunctive fork
  // pushes a trail level per choice, recurses, and pops — so sibling
  // choices see the exact pre-fork state without a single COW clone.
  ++stats_.branches_opened;
  if (depth > stats_.peak_branch_depth) stats_.peak_branch_depth = depth;
  for (;;) {
    if (*stop) return true;
    if (prune_ != nullptr && (*prune_)(branch->I())) {
      ++stats_.branches_saturated;
      branch_terminations_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    ++stats_.steps;
    if (steps_used_.fetch_add(1, std::memory_order_relaxed) >
            budget_.max_steps ||
        branch_terminations_.load(std::memory_order_relaxed) >
            budget_.max_branches) {
      stats_.budget_hit = true;
      return false;
    }
    std::optional<Obligation> ob = FindObligation(*branch, &stats_);
    if (!ob) {
      ++stats_.branches_saturated;
      branch_terminations_.fetch_add(1, std::memory_order_relaxed);
      Instance model = CompactModel(*branch);
      RecordModel(*branch, model);
      if (fn(model)) *stop = true;
      return true;
    }
    std::vector<size_t> choices = ChoiceIndices(*ob);
    if (choices.empty()) {
      // Every alternative is ⊥: the firing itself closes the branch.
      ++stats_.branches_closed;
      branch_terminations_.fetch_add(1, std::memory_order_relaxed);
      if (ng != nullptr) ng->Learn(ng->ContextDeps(*ob), depth, &stats_);
      return true;
    }
    if (choices.size() == 1) {
      // Deterministic chain: no fork, no level — mutate in place.
      NogoodCtx::DepSet fire_deps;
      size_t mark = trail->num_entries();
      if (ng != nullptr) fire_deps = ng->ContextDeps(*ob);
      Clash clash;
      if (!ApplyChoice(branch, *ob, choices[0], &stats_, trail, &clash)) {
        ++stats_.branches_closed;
        branch_terminations_.fetch_add(1, std::memory_order_relaxed);
        if (ng != nullptr) {
          ng->LearnFromClash(fire_deps, clash, depth, &stats_);
        }
        return true;
      }
      if (ng != nullptr) ng->RecordFiring(*trail, mark, fire_deps);
      continue;
    }
    // Disjunctive fork.
    bool complete = true;
    NogoodCtx::DepSet ctx_deps;
    if (ng != nullptr) ctx_deps = ng->ContextDeps(*ob);
    bool is_rule = ob->kind == Obligation::Kind::kRule;
    uint32_t rule_index =
        is_rule ? static_cast<uint32_t>(ob->rule - rules_.rules.data()) : 0;
    for (size_t ci : choices) {
      if (*stop) break;
      if (ng != nullptr && is_rule) {
        NogoodDecision cand;
        cand.rule_index = rule_index;
        cand.binding = ob->binding;
        cand.alt_index = static_cast<uint32_t>(ci);
        if (ng->WouldPrune(cand)) {
          // Learned clauses prove this choice's subtree closes entirely;
          // skip it before expanding a single obligation.
          ++stats_.nogood_prunes;
          continue;
        }
      }
      trail->PushLevel();
      if (ng != nullptr) {
        ng->PushLevel();
        if (is_rule) {
          ng->PushDecision(rule_index, ob->binding,
                           static_cast<uint32_t>(ci));
        } else {
          ng->PushOpaqueDecision();
        }
      }
      NogoodCtx::DepSet fire_deps;
      size_t mark = trail->num_entries();
      if (ng != nullptr) fire_deps = ng->WithCurrentDecision(ctx_deps);
      Clash clash;
      if (ApplyChoice(branch, *ob, ci, &stats_, trail, &clash)) {
        if (ng != nullptr) ng->RecordFiring(*trail, mark, fire_deps);
        if (!ExploreTrail(branch, trail, ng, depth + 1, fn, stop)) {
          complete = false;
        }
      } else {
        ++stats_.branches_closed;
        branch_terminations_.fetch_add(1, std::memory_order_relaxed);
        if (ng != nullptr) {
          ng->LearnFromClash(fire_deps, clash, depth + 1, &stats_);
        }
      }
      if (ng != nullptr) ng->PopLevel();
      trail->PopLevel();
    }
    return complete;
  }
}

// --- Or-parallel search --------------------------------------------------------

// Shared state of one parallel exploration family. The callback pointer is
// written once before any task runs; result_mu serializes model reports
// (so the user callback and last_model_ writes never race); stats_mu
// guards merging per-task stats into stats_ as tasks retire.
struct Tableau::ParallelCtx {
  explicit ParallelCtx(Scheduler* s) : scheduler(s), group(s) {}

  Scheduler* scheduler;
  const std::function<bool(const Instance&)>* fn = nullptr;
  CancellationToken cancel;
  TaskGroup group;
  std::mutex result_mu;
  std::mutex stats_mu;
  std::atomic<uint32_t> live_tasks{0};
  std::atomic<uint32_t> peak_live{0};
  // 0 = occupancy-driven spawning (Scheduler::ShouldSpawn per fork);
  // nonzero = the deprecated fixed-depth override.
  uint64_t spawn_cutoff = 0;

  bool SpawnHere(uint64_t depth) {
    return spawn_cutoff > 0 ? depth < spawn_cutoff : scheduler->ShouldSpawn();
  }
};

void Tableau::ExploreTask(Branch branch, uint64_t depth, ParallelCtx* ctx,
                          TableauStats* stats) {
  ++stats->branches_opened;
  if (depth > stats->peak_branch_depth) stats->peak_branch_depth = depth;
  for (;;) {
    // Cooperative cancellation, checked at obligation granularity: a
    // sibling found what the search wanted, so this subtree is abandoned
    // without touching the budget counters.
    if (ctx->cancel.cancelled()) {
      ++stats->cancelled_branches;
      return;
    }
    if (prune_ != nullptr && (*prune_)(branch.I())) {
      ++stats->branches_saturated;
      branch_terminations_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Shared budget: every worker draws steps from the same relaxed
    // counters, so the family's total work obeys the same limits the
    // serial engine enforces. Hitting a limit marks the (task-local)
    // budget_hit, which downgrades the verdict to kUnknown after the
    // merge — never to a wrong answer.
    ++stats->steps;
    if (steps_used_.fetch_add(1, std::memory_order_relaxed) >
            budget_.max_steps ||
        branch_terminations_.load(std::memory_order_relaxed) >
            budget_.max_branches) {
      stats->budget_hit = true;
      return;
    }
    std::optional<Obligation> ob = FindObligation(branch, stats);
    if (!ob) {
      ++stats->branches_saturated;
      branch_terminations_.fetch_add(1, std::memory_order_relaxed);
      Instance model = CompactModel(branch);
      std::lock_guard<std::mutex> lk(ctx->result_mu);
      // Re-check under the lock: a sibling may have accepted a model while
      // this one was being compacted, and the user callback must not be
      // invoked after it returned "stop".
      if (!ctx->cancel.cancelled()) {
        RecordModel(branch, model);
        if ((*ctx->fn)(model)) ctx->cancel.Cancel();
      }
      return;
    }
    std::vector<Branch> successors = Expand(std::move(branch), *ob, stats);
    if (successors.empty()) {
      ++stats->branches_closed;
      branch_terminations_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (successors.size() == 1) {
      branch = std::move(successors[0]);
      continue;
    }
    // A genuine disjunctive fork. Siblings become pool tasks while the
    // shared pool has spare capacity (or, under the deprecated fixed
    // cutoff, above the cutoff depth); otherwise the subtree stays serial
    // inside this task — under cross-layer contention the occupancy signal
    // keeps task-spawn overhead off work nobody is idle to steal.
    if (!ctx->SpawnHere(depth)) {
      ++stats->sequential_cutoff_hits;
      for (size_t i = 1; i < successors.size(); ++i) {
        if (ctx->cancel.cancelled()) {
          ++stats->cancelled_branches;
          return;
        }
        ExploreTask(std::move(successors[i]), depth + 1, ctx, stats);
      }
    } else {
      for (size_t i = 1; i < successors.size(); ++i) {
        ++stats->tasks_spawned;
        // Branch is copyable, so the capturing lambda satisfies
        // std::function; the COW instance makes the capture cheap and the
        // handed-off branch disjoint from this task's continuation.
        ctx->group.Spawn(
            [this, ctx, depth, b = std::move(successors[i])]() mutable {
              TableauStats local;
              uint32_t live =
                  ctx->live_tasks.fetch_add(1, std::memory_order_relaxed) + 1;
              uint32_t peak = ctx->peak_live.load(std::memory_order_relaxed);
              while (live > peak &&
                     !ctx->peak_live.compare_exchange_weak(
                         peak, live, std::memory_order_relaxed)) {
              }
              ExploreTask(std::move(b), depth + 1, ctx, &local);
              ctx->live_tasks.fetch_sub(1, std::memory_order_relaxed);
              std::lock_guard<std::mutex> lk(ctx->stats_mu);
              stats_ += local;
            });
      }
    }
    // Continue with the first successor in place (same storage reuse as
    // the serial loop), counting it as a new branch one level deeper.
    branch = std::move(successors[0]);
    ++depth;
    ++stats->branches_opened;
    if (depth > stats->peak_branch_depth) stats->peak_branch_depth = depth;
  }
}

void Tableau::ExploreParallel(Branch root,
                              const std::function<bool(const Instance&)>& fn) {
  ParallelCtx ctx(scheduler_);
  ctx.fn = &fn;
  ctx.spawn_cutoff = budget_.spawn_cutoff_depth;
  // The calling thread runs the root subtree inline (it counts as a live
  // exploration) and only then waits for the spawned family — the root
  // never blocks inside a task, so a work-stealing pool of any size makes
  // progress and Wait() cannot deadlock.
  ctx.live_tasks.store(1, std::memory_order_relaxed);
  ctx.peak_live.store(1, std::memory_order_relaxed);
  TableauStats local;
  ExploreTask(std::move(root), 0, &ctx, &local);
  ctx.live_tasks.fetch_sub(1, std::memory_order_relaxed);
  ctx.group.Wait();
  // All tasks have retired; the merges below race with nothing.
  stats_ += local;
  uint64_t peak = ctx.peak_live.load(std::memory_order_relaxed);
  if (peak > stats_.peak_live_tasks) stats_.peak_live_tasks = peak;
}

// --- Entry points --------------------------------------------------------------

bool Tableau::ForEachModel(const Instance& input,
                           const std::function<bool(const Instance&)>& fn) {
  stats_ = TableauStats{};
  steps_used_.store(0, std::memory_order_relaxed);
  branch_terminations_.store(0, std::memory_order_relaxed);
  learned_nogoods_.clear();
  last_model_.reset();
  input_elements_ = static_cast<ElemId>(input.NumElements());
  Branch root;
  root.inst = std::make_shared<Instance>(input);
  if (budget_.engine == TableauEngine::kTrail) {
    // Destructive in-place exploration, serial by design (tableau_threads
    // is ignored — see TableauEngine::kTrail). The root branch owns its
    // instance outright (use_count 1), so the whole search runs without a
    // single COW clone.
    BranchTrail trail(&root, &stats_);
    std::unique_ptr<NogoodCtx> ng;
    if (budget_.learn_nogoods && nogood_eligible_) {
      ng = std::make_unique<NogoodCtx>(input.NumElements());
    }
    bool stop = false;
    bool complete = ExploreTrail(&root, &trail, ng.get(), 0, fn, &stop);
    if (ng != nullptr) learned_nogoods_ = std::move(ng->learned);
    if (stats_.budget_hit) complete = false;
    return complete;
  }
  uint32_t threads = ThreadPool::EffectiveThreads(budget_.tableau_threads);
  if (threads <= 1) {
    // The serial reference engine: exact legacy semantics, no pool.
    bool stop = false;
    bool complete = Explore(std::move(root), 0, fn, &stop);
    if (stats_.budget_hit) complete = false;
    return complete;
  }
  ExploreParallel(std::move(root), fn);
  // Completeness has the same meaning as in the serial engine: some part
  // of the branch space went unexplored iff a budget was hit (cancelled
  // subtrees don't count — the search already has its answer).
  return !stats_.budget_hit;
}

Certainty Tableau::RefutesWithForcedChoices(const Instance& input,
                                            const Nogood& ng) {
  // Serial COW replay with the nogood's decisions forced: ChoiceIndices
  // restricts every matching kRule fork to the recorded alternative. A
  // sound nogood makes the restricted search close completely (kNo).
  forced_ = &ng;
  stats_ = TableauStats{};
  steps_used_.store(0, std::memory_order_relaxed);
  branch_terminations_.store(0, std::memory_order_relaxed);
  Branch root;
  root.inst = std::make_shared<Instance>(input);
  bool stop = false;
  bool found = false;
  std::function<bool(const Instance&)> fn = [&found](const Instance&) {
    found = true;
    return true;
  };
  bool complete = Explore(std::move(root), 0, fn, &stop);
  forced_ = nullptr;
  if (found) return Certainty::kYes;  // the nogood would be unsound
  if (stats_.budget_hit || !complete) return Certainty::kUnknown;
  return Certainty::kNo;
}

Certainty Tableau::IsConsistent(const Instance& input) {
  bool found = false;
  bool complete = ForEachModel(input, [&found](const Instance&) {
    found = true;
    return true;
  });
  if (found) return Certainty::kYes;
  return complete ? Certainty::kNo : Certainty::kUnknown;
}

Certainty Tableau::FindModelWhere(
    const Instance& input, const std::function<bool(const Instance&)>& reject,
    bool reject_antimonotone) {
  std::function<bool(const Instance&)> prune;
  if (reject_antimonotone) {
    prune = [&reject](const Instance& inst) { return !reject(inst); };
    prune_ = &prune;
  }
  bool found = false;
  bool declined = false;
  bool complete = ForEachModel(input, [&](const Instance& model) {
    // RecordModel has just cleared last_model_ if the model lost an input
    // element's id. `reject` reads input ids (a query tuple), so such a
    // model can be neither accepted nor ruled out.
    if (!last_model_) {
      declined = true;
      return false;
    }
    if (reject(model)) {
      found = true;
      return true;
    }
    return false;
  });
  prune_ = nullptr;
  if (found) return Certainty::kYes;
  return complete && !declined ? Certainty::kNo : Certainty::kUnknown;
}

}  // namespace gfomq
