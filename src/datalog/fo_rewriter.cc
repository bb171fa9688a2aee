#include "datalog/fo_rewriter.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace gfomq {

namespace {

/// A CQ atom with an unfolding state: frozen atoms are database lookups
/// (final), unfrozen atoms still name a derived relation to expand.
struct WAtom {
  uint32_t rel;
  std::vector<uint32_t> vars;
  bool frozen;

  auto operator<=>(const WAtom&) const = default;
};

struct Partial {
  std::vector<WAtom> atoms;
  std::vector<uint32_t> answer_vars;
  uint32_t num_vars = 0;  // next fresh id; ids may be sparse after merges
};

void RenameVar(Partial* p, uint32_t from, uint32_t to) {
  for (WAtom& a : p->atoms) {
    for (uint32_t& v : a.vars) {
      if (v == from) v = to;
    }
  }
  for (uint32_t& v : p->answer_vars) {
    if (v == from) v = to;
  }
}

/// Inserts unless an identical atom (same frozen state) is present.
/// Identical conjuncts are idempotent, so this is an equivalence.
void AddAtom(Partial* p, WAtom atom) {
  for (const WAtom& a : p->atoms) {
    if (a == atom) return;
  }
  p->atoms.push_back(std::move(atom));
}

/// Compacts variable ids to 0..n-1 (answer variables first, then first
/// occurrence order) and emits a canonical Cq with sorted atoms.
Cq Finalize(const Partial& p, const SymbolsPtr& symbols) {
  std::map<uint32_t, uint32_t> remap;
  auto touch = [&remap](uint32_t v) {
    remap.emplace(v, static_cast<uint32_t>(remap.size()));
  };
  for (uint32_t v : p.answer_vars) touch(v);
  for (const WAtom& a : p.atoms) {
    for (uint32_t v : a.vars) touch(v);
  }
  Cq cq;
  cq.symbols = symbols;
  cq.num_vars = static_cast<uint32_t>(remap.size());
  for (uint32_t v : p.answer_vars) cq.answer_vars.push_back(remap.at(v));
  for (const WAtom& a : p.atoms) {
    CqAtom atom{a.rel, {}};
    atom.vars.reserve(a.vars.size());
    for (uint32_t v : a.vars) atom.vars.push_back(remap.at(v));
    cq.atoms.push_back(std::move(atom));
  }
  std::sort(cq.atoms.begin(), cq.atoms.end());
  cq.atoms.erase(std::unique(cq.atoms.begin(), cq.atoms.end()),
                 cq.atoms.end());
  return cq;
}

/// Detects a cycle among the derived relations reachable from `rel` and
/// collects the reachable set. Returns false on a cycle.
bool ReachableAcyclic(
    uint32_t rel,
    const std::map<uint32_t, std::vector<const DatalogRule*>>& rules_by_head,
    std::set<uint32_t>* reachable) {
  std::map<uint32_t, int> color;  // 0/absent = new, 1 = on stack, 2 = done
  std::vector<std::pair<uint32_t, size_t>> stack;  // (rel, next edge index)
  auto edges = [&](uint32_t r) -> std::vector<uint32_t> {
    std::vector<uint32_t> out;
    auto it = rules_by_head.find(r);
    if (it == rules_by_head.end()) return out;
    for (const DatalogRule* rule : it->second) {
      for (const DatalogAtom& b : rule->body) {
        if (rules_by_head.count(b.rel)) out.push_back(b.rel);
      }
    }
    return out;
  };
  std::map<uint32_t, std::vector<uint32_t>> edge_cache;
  color[rel] = 1;
  reachable->insert(rel);
  stack.emplace_back(rel, 0);
  while (!stack.empty()) {
    auto& [r, next] = stack.back();
    if (!edge_cache.count(r)) edge_cache[r] = edges(r);
    const std::vector<uint32_t>& out = edge_cache[r];
    if (next == out.size()) {
      color[r] = 2;
      stack.pop_back();
      continue;
    }
    uint32_t target = out[next++];
    int c = color.count(target) ? color[target] : 0;
    if (c == 1) return false;  // back edge: recursion
    if (c == 0) {
      color[target] = 1;
      reachable->insert(target);
      stack.emplace_back(target, 0);
    }
  }
  return true;
}

}  // namespace

FoRewriteResult RewriteToUcq(const DatalogProgram& program,
                             const std::vector<uint32_t>& edb_rels,
                             FoRewriteOptions options) {
  FoRewriteResult result;
  if (program.goal_rel < 0) {
    result.bail = FoRewriteResult::Bail::kNoGoal;
    return result;
  }
  const uint32_t goal = static_cast<uint32_t>(program.goal_rel);
  const std::set<uint32_t> edb(edb_rels.begin(), edb_rels.end());

  // Prune first, so the recursion check below is "modulo redundancy":
  // the sweep's subsumed rules make the dependency graph spuriously cyclic.
  DatalogProgram pruned = program;
  result.pruned_rules = PruneRedundantRules(&pruned);
  std::map<uint32_t, std::vector<const DatalogRule*>> rules_by_head;
  for (const DatalogRule& r : pruned.rules) {
    rules_by_head[r.head.rel].push_back(&r);
  }

  // Non-recursiveness: the goal's derived-relation dependency graph must
  // be a DAG; only then does the fixpoint collapse into a finite UCQ.
  std::set<uint32_t> reachable;
  if (!ReachableAcyclic(goal, rules_by_head, &reachable)) {
    result.bail = FoRewriteResult::Bail::kRecursive;
    return result;
  }
  for (uint32_t r : reachable) {
    for (const DatalogRule* rule : rules_by_head.at(r)) {
      if (!rule->neq.empty()) {
        result.bail = FoRewriteResult::Bail::kNeq;
        return result;
      }
    }
  }

  // Unfold: start from goal(x0..xk-1) and repeatedly replace the first
  // unfrozen atom by (a) its frozen base case when the relation may occur
  // in a database, and (b) one copy per defining rule, head unified with
  // the atom (repeated head variables merge query variables).
  const uint32_t arity = program.symbols->RelArity(goal);
  Partial root;
  root.num_vars = arity;
  for (uint32_t i = 0; i < arity; ++i) root.answer_vars.push_back(i);
  {
    WAtom g{goal, {}, false};
    for (uint32_t i = 0; i < arity; ++i) g.vars.push_back(i);
    root.atoms.push_back(std::move(g));
  }

  std::vector<Partial> work{std::move(root)};
  std::set<std::string> seen;
  std::vector<Cq> disjuncts;
  while (!work.empty()) {
    if (++result.expansions > options.max_expansions) {
      result.bail = FoRewriteResult::Bail::kTooLarge;
      return result;
    }
    Partial p = std::move(work.back());
    work.pop_back();

    size_t ui = p.atoms.size();
    for (size_t i = 0; i < p.atoms.size(); ++i) {
      if (!p.atoms[i].frozen) {
        ui = i;
        break;
      }
    }
    if (ui == p.atoms.size()) {
      Cq cq = Finalize(p, program.symbols);
      if (seen.insert(cq.ToString()).second) {
        if (disjuncts.size() == options.max_disjuncts) {
          result.bail = FoRewriteResult::Bail::kTooLarge;
          return result;
        }
        disjuncts.push_back(std::move(cq));
      }
      continue;
    }

    WAtom atom = std::move(p.atoms[ui]);
    p.atoms.erase(p.atoms.begin() + static_cast<int64_t>(ui));
    auto defs = rules_by_head.find(atom.rel);
    const bool in_edb = edb.count(atom.rel) > 0;
    if (in_edb) {
      // Base case: the atom holds directly in the database.
      Partial q = p;
      AddAtom(&q, WAtom{atom.rel, atom.vars, true});
      if (q.atoms.size() > options.max_atoms_per_disjunct) {
        result.bail = FoRewriteResult::Bail::kTooLarge;
        return result;
      }
      work.push_back(std::move(q));
    }
    if (defs == rules_by_head.end()) {
      // No rules and not a database relation (e.g. incons# in a program
      // with no inconsistency rules): the atom is underivable — drop the
      // disjunct.
      continue;
    }
    for (const DatalogRule* rule : defs->second) {
      Partial q = p;
      std::vector<uint32_t> args = atom.vars;
      std::vector<int64_t> map(rule->num_vars, -1);
      for (size_t i = 0; i < args.size(); ++i) {
        uint32_t h = rule->head.vars[i];
        if (map[h] < 0) {
          map[h] = args[i];
        } else if (static_cast<uint32_t>(map[h]) != args[i]) {
          // The rule instance forces these two query variables equal.
          const uint32_t from = args[i];
          const uint32_t to = static_cast<uint32_t>(map[h]);
          RenameVar(&q, from, to);
          for (int64_t& m : map) {
            if (m == static_cast<int64_t>(from)) m = to;
          }
          for (uint32_t& v : args) {
            if (v == from) v = to;
          }
        }
      }
      for (uint32_t rv = 0; rv < rule->num_vars; ++rv) {
        if (map[rv] < 0) map[rv] = q.num_vars++;
      }
      for (const DatalogAtom& b : rule->body) {
        WAtom na{b.rel, {}, false};
        na.vars.reserve(b.vars.size());
        for (uint32_t v : b.vars) {
          na.vars.push_back(static_cast<uint32_t>(map[v]));
        }
        AddAtom(&q, std::move(na));
      }
      if (q.atoms.size() > options.max_atoms_per_disjunct) {
        result.bail = FoRewriteResult::Bail::kTooLarge;
        return result;
      }
      work.push_back(std::move(q));
    }
  }

  result.disjuncts_before_min = disjuncts.size();
  if (disjuncts.empty()) {
    // No disjunct survived: the goal is underivable on every database and
    // the UCQ would be empty — Ucq cannot represent "no answers" with the
    // right arity, and an underivable goal means the datalog backend is
    // the honest representation. Treat as a bail.
    result.bail = FoRewriteResult::Bail::kTooLarge;
    return result;
  }

  if (options.minimize) {
    // UCQ minimization: drop any disjunct contained in a more general one
    // (standard CQ containment — a homomorphism into the canonical
    // database hitting the answer tuple). Sound: removing a contained
    // disjunct never changes the union's answers.
    std::stable_sort(disjuncts.begin(), disjuncts.end(),
                     [](const Cq& a, const Cq& b) {
                       return a.atoms.size() < b.atoms.size();
                     });
    std::vector<Cq> kept;
    for (Cq& d : disjuncts) {
      Instance db = d.CanonicalDb();
      std::vector<ElemId> tuple(d.answer_vars.begin(), d.answer_vars.end());
      bool subsumed = false;
      for (const Cq& k : kept) {
        if (k.HasAnswer(db, tuple)) {
          subsumed = true;
          break;
        }
      }
      if (!subsumed) kept.push_back(std::move(d));
    }
    result.subsumed_disjuncts = result.disjuncts_before_min - kept.size();
    disjuncts = std::move(kept);
  }

  std::sort(disjuncts.begin(), disjuncts.end(), [](const Cq& a, const Cq& b) {
    if (a.atoms.size() != b.atoms.size()) {
      return a.atoms.size() < b.atoms.size();
    }
    return a.ToString() < b.ToString();
  });
  result.ucq.disjuncts = std::move(disjuncts);
  result.ok = true;
  return result;
}

}  // namespace gfomq
