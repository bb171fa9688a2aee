#include "reasoner/ground.h"

#include <algorithm>
#include <map>
#include <set>

#include "sat/solver.h"

namespace gfomq {

namespace {

// Dense variable block per relation: one SAT variable per ground atom.
class AtomVars {
 public:
  AtomVars(const std::set<uint32_t>& rels, const Symbols& symbols, uint32_t n,
           Cnf* cnf)
      : n_(n) {
    for (uint32_t r : rels) {
      int arity = symbols.RelArity(r);
      uint64_t count = 1;
      for (int i = 0; i < arity; ++i) count *= n;
      uint32_t base = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint32_t v = cnf->NewVar();
        if (i == 0) base = v;
      }
      base_[r] = base;
      arity_[r] = arity;
    }
  }

  bool Known(uint32_t rel) const { return base_.count(rel) > 0; }

  uint32_t Var(uint32_t rel, const std::vector<ElemId>& args) const {
    uint64_t index = 0;
    for (ElemId a : args) index = index * n_ + a;
    return base_.at(rel) + static_cast<uint32_t>(index);
  }

  const std::map<uint32_t, int>& arities() const { return arity_; }

 private:
  uint32_t n_;
  std::map<uint32_t, uint32_t> base_;
  std::map<uint32_t, int> arity_;
};

// Enumerates all assignments of `count` slots over domain size n.
class TupleIter {
 public:
  TupleIter(size_t count, uint32_t n) : tuple_(count, 0), n_(n) {}

  bool done() const { return done_; }
  const std::vector<ElemId>& tuple() const { return tuple_; }

  void Next() {
    for (size_t i = 0; i < tuple_.size(); ++i) {
      if (++tuple_[i] < n_) return;
      tuple_[i] = 0;
    }
    done_ = true;
  }

 private:
  std::vector<ElemId> tuple_;
  uint32_t n_;
  bool done_ = tuple_.empty();
};

void CollectRuleRels(const RuleSet& rules, std::set<uint32_t>* rels) {
  auto add_lit = [&](const Lit& l) {
    if (!l.is_eq) rels->insert(l.rel);
  };
  for (const GuardedRule& r : rules.rules) {
    if (!r.eq_guard) add_lit(r.guard);
    for (const Lit& l : r.body) add_lit(l);
    for (const HeadAlt& alt : r.head) {
      for (const Lit& l : alt.lits) add_lit(l);
      for (const ExistsUnit& e : alt.exists) {
        add_lit(e.guard);
        for (const Lit& l : e.lits) add_lit(l);
      }
      for (const ForallUnit& f : alt.foralls) {
        add_lit(f.guard);
        for (const Lit& l : f.clause.lits) add_lit(l);
      }
      for (const CountUnit& c : alt.counts) {
        add_lit(c.guard);
        for (const Lit& l : c.lits) add_lit(l);
      }
    }
  }
  for (const FunctionalityConstraint& fc : rules.functional) {
    rels->insert(fc.rel);
  }
}

// Environment = total assignment of rule-local vars to domain elements.
// Returns the SAT literal for `lit` under `env`, or nullopt when the literal
// is statically decided (out->second says which way).
std::optional<SatLit> GroundLit(const Lit& lit, const std::vector<ElemId>& env,
                                const AtomVars& vars, bool* static_value) {
  if (lit.is_eq) {
    bool eq = env[lit.args[0]] == env[lit.args[1]];
    *static_value = lit.positive ? eq : !eq;
    return std::nullopt;
  }
  std::vector<ElemId> args;
  args.reserve(lit.args.size());
  for (uint32_t v : lit.args) args.push_back(env[v]);
  uint32_t var = vars.Var(lit.rel, args);
  return lit.positive ? SatLit::Pos(var) : SatLit::Neg(var);
}

uint32_t MaxVar(const Lit& l) {
  uint32_t m = 0;
  for (uint32_t v : l.args) m = std::max(m, v);
  return m;
}

// Gated cardinality: cond -> at least / at most k of lits.
void AtLeastIf(Cnf* cnf, SatLit cond, const std::vector<SatLit>& lits,
               uint32_t k) {
  if (k == 0) return;
  std::vector<SatLit> gated;
  gated.reserve(lits.size());
  for (SatLit l : lits) {
    uint32_t g = cnf->NewVar();
    // !cond -> g ; l -> g ; g -> (l | !cond)
    cnf->AddBinary(cond, SatLit::Pos(g));
    cnf->AddBinary(l.Flip(), SatLit::Pos(g));
    cnf->AddClause({SatLit::Neg(g), l, cond.Flip()});
    gated.push_back(SatLit::Pos(g));
  }
  cnf->AtLeast(gated, k);
}

void AtMostIf(Cnf* cnf, SatLit cond, const std::vector<SatLit>& lits,
              uint32_t k) {
  std::vector<SatLit> gated;
  gated.reserve(lits.size());
  for (SatLit l : lits) {
    uint32_t g = cnf->NewVar();
    // !cond -> !g ; cond & l -> g ; g -> l
    cnf->AddBinary(cond, SatLit::Neg(g));
    cnf->AddClause({cond.Flip(), l.Flip(), SatLit::Pos(g)});
    cnf->AddBinary(SatLit::Neg(g), l);
    gated.push_back(SatLit::Pos(g));
  }
  cnf->AtMost(gated, k);
}

}  // namespace

std::optional<Instance> GroundSolver::FindModelAtSize(
    const Instance& input, uint32_t extra_nulls, const AvoidList& avoid,
    Certainty* certainty, uint64_t max_conflicts) {
  const uint32_t n = static_cast<uint32_t>(input.NumElements()) + extra_nulls;
  if (n == 0) {
    *certainty = Certainty::kNo;  // interpretations are non-empty
    return std::nullopt;
  }

  std::set<uint32_t> rels;
  CollectRuleRels(rules_, &rels);
  for (uint32_t r : input.Signature()) rels.insert(r);
  for (const auto& [query, tuple] : avoid) {
    for (const Cq& d : query.disjuncts) {
      // A relation in neither rules nor data can stay empty in every
      // model, but grounding still needs variables for it so that the
      // negated query constrains them.
      for (const CqAtom& a : d.atoms) rels.insert(a.rel);
    }
  }

  Cnf cnf;
  AtomVars vars(rels, *rules_.symbols, n, &cnf);

  // Input facts hold.
  for (const Fact& f : input.facts()) {
    cnf.AddUnit(SatLit::Pos(vars.Var(f.rel, f.args)));
  }

  // Rules.
  for (const GuardedRule& rule : rules_.rules) {
    uint32_t env_size = rule.num_vars;
    // Alternatives may use larger variable ids (unit qvars); sized later.
    TupleIter it(rule.num_vars, n);
    for (; !it.done(); it.Next()) {
      std::vector<ElemId> binding = it.tuple();
      std::vector<SatLit> clause;
      if (!rule.eq_guard) {
        bool stat = false;
        std::optional<SatLit> g = GroundLit(rule.guard, binding, vars, &stat);
        clause.push_back(g->Flip());
      } else if (rule.num_vars == 1) {
        // matches every element; no guard literal.
      }
      bool clause_static_true = false;
      for (const Lit& l : rule.body) {
        bool stat = false;
        std::optional<SatLit> gl = GroundLit(l, binding, vars, &stat);
        if (!gl) {
          if (!stat) clause_static_true = true;  // body false: vacuous
          continue;
        }
        clause.push_back(gl->Flip());
      }
      for (size_t ai = 0; ai < rule.head.size() && !clause_static_true; ++ai) {
        const HeadAlt& alt = rule.head[ai];
        if (alt.is_false) continue;
        SatLit a = SatLit::Pos(cnf.NewVar());
        clause.push_back(a);
        // a -> literals
        bool alt_dead = false;
        for (const Lit& l : alt.lits) {
          bool stat = false;
          std::optional<SatLit> gl = GroundLit(l, binding, vars, &stat);
          if (!gl) {
            if (!stat) alt_dead = true;
            continue;
          }
          cnf.AddBinary(a.Flip(), *gl);
        }
        if (alt_dead) {
          cnf.AddUnit(a.Flip());
          continue;
        }
        // a -> exists units
        for (const ExistsUnit& e : alt.exists) {
          uint32_t need = MaxVar(e.guard);
          for (const Lit& l : e.lits) need = std::max(need, MaxVar(l));
          for (uint32_t q : e.qvars) need = std::max(need, q);
          std::vector<SatLit> options;
          TupleIter wit(e.qvars.size(), n);
          for (; !wit.done(); wit.Next()) {
            std::vector<ElemId> env = binding;
            env.resize(std::max<size_t>(env_size, need + 1), 0);
            for (size_t qi = 0; qi < e.qvars.size(); ++qi) {
              env[e.qvars[qi]] = wit.tuple()[qi];
            }
            SatLit w = SatLit::Pos(cnf.NewVar());
            bool dead = false;
            auto attach = [&](const Lit& l) {
              bool stat = false;
              std::optional<SatLit> gl = GroundLit(l, env, vars, &stat);
              if (!gl) {
                if (!stat) dead = true;
                return;
              }
              cnf.AddBinary(w.Flip(), *gl);
            };
            attach(e.guard);
            for (const Lit& l : e.lits) attach(l);
            if (!dead) options.push_back(w);
          }
          options.push_back(a.Flip());
          cnf.AddClause(options);  // a -> OR of witnesses
        }
        // a -> forall units
        for (const ForallUnit& f : alt.foralls) {
          uint32_t need = MaxVar(f.guard);
          for (const Lit& l : f.clause.lits) need = std::max(need, MaxVar(l));
          for (uint32_t q : f.qvars) need = std::max(need, q);
          TupleIter m(f.qvars.size(), n);
          for (; !m.done(); m.Next()) {
            std::vector<ElemId> env = binding;
            env.resize(std::max<size_t>(env_size, need + 1), 0);
            for (size_t qi = 0; qi < f.qvars.size(); ++qi) {
              env[f.qvars[qi]] = m.tuple()[qi];
            }
            std::vector<SatLit> ground{a.Flip()};
            bool stat = false;
            std::optional<SatLit> gg = GroundLit(f.guard, env, vars, &stat);
            ground.push_back(gg->Flip());
            bool statically_true = false;
            for (const Lit& l : f.clause.lits) {
              bool s2 = false;
              std::optional<SatLit> gl = GroundLit(l, env, vars, &s2);
              if (!gl) {
                if (s2) statically_true = true;
                continue;
              }
              ground.push_back(*gl);
            }
            if (!statically_true) cnf.AddClause(ground);
          }
        }
        // a -> counting units
        for (const CountUnit& c : alt.counts) {
          uint32_t need = std::max(MaxVar(c.guard), c.qvar);
          for (const Lit& l : c.lits) need = std::max(need, MaxVar(l));
          std::vector<SatLit> wits;
          std::vector<std::vector<SatLit>> wit_defs;  // guard+lits per y
          for (ElemId y = 0; y < n; ++y) {
            std::vector<ElemId> env = binding;
            env.resize(std::max<size_t>(env_size, need + 1), 0);
            env[c.qvar] = y;
            std::vector<SatLit> parts;
            bool dead = false;
            auto collect = [&](const Lit& l) {
              bool stat = false;
              std::optional<SatLit> gl = GroundLit(l, env, vars, &stat);
              if (!gl) {
                if (!stat) dead = true;
                return;
              }
              parts.push_back(*gl);
            };
            collect(c.guard);
            for (const Lit& l : c.lits) collect(l);
            if (dead) continue;
            SatLit w = SatLit::Pos(cnf.NewVar());
            if (c.at_least) {
              // w -> parts (pushing w true forces the facts).
              for (SatLit p : parts) cnf.AddBinary(w.Flip(), p);
            } else {
              // parts -> w (any qualifying witness is counted).
              std::vector<SatLit> def{w};
              for (SatLit p : parts) def.push_back(p.Flip());
              cnf.AddClause(def);
            }
            wits.push_back(w);
            wit_defs.push_back(parts);
          }
          if (c.at_least) {
            if (wits.size() < c.n) {
              cnf.AddUnit(a.Flip());  // not enough domain elements
            } else {
              AtLeastIf(&cnf, a, wits, c.n);
            }
          } else {
            AtMostIf(&cnf, a, wits, c.n);
          }
        }
      }
      if (!clause_static_true) cnf.AddClause(clause);
    }
  }

  // Functionality.
  for (const FunctionalityConstraint& fc : rules_.functional) {
    for (ElemId key = 0; key < n; ++key) {
      std::vector<SatLit> row;
      for (ElemId val = 0; val < n; ++val) {
        std::vector<ElemId> args =
            fc.inverse ? std::vector<ElemId>{val, key}
                       : std::vector<ElemId>{key, val};
        row.push_back(SatLit::Pos(vars.Var(fc.rel, args)));
      }
      cnf.AtMost(row, 1);
    }
  }

  // ¬q(a~) for every avoided pair: for every disjunct and every
  // assignment extending a~, some atom is false.
  for (const auto& [query, tuple] : avoid) {
    for (const Cq& d : query.disjuncts) {
      TupleIter assign(d.num_vars, n);
      for (; !assign.done(); assign.Next()) {
        std::vector<ElemId> env = assign.tuple();
        bool compatible = true;
        for (size_t i = 0; i < d.answer_vars.size(); ++i) {
          if (env[d.answer_vars[i]] != tuple[i]) {
            compatible = false;
            break;
          }
        }
        if (!compatible) continue;
        std::vector<SatLit> clause;
        for (const CqAtom& atom : d.atoms) {
          std::vector<ElemId> args;
          for (uint32_t v : atom.vars) args.push_back(env[v]);
          clause.push_back(SatLit::Neg(vars.Var(atom.rel, args)));
        }
        cnf.AddClause(clause);
      }
    }
  }

  SatSolver solver(cnf);
  SatResult result = solver.Solve(max_conflicts);
  if (result == SatResult::kUnknown) {
    *certainty = Certainty::kUnknown;
    return std::nullopt;
  }
  if (result == SatResult::kUnsat) {
    *certainty = Certainty::kNo;
    return std::nullopt;
  }
  *certainty = Certainty::kYes;
  // Decode the model.
  Instance model = input;
  for (uint32_t i = 0; i < extra_nulls; ++i) model.AddNull();
  for (const auto& [rel, arity] : vars.arities()) {
    TupleIter t(static_cast<size_t>(arity), n);
    for (; !t.done(); t.Next()) {
      if (solver.Value(vars.Var(rel, t.tuple()))) {
        model.AddFact(rel, t.tuple());
      }
    }
  }
  return model;
}

Certainty GroundSolver::FindModel(const Instance& input,
                                  const AvoidList& avoid,
                                  uint32_t max_extra_nulls,
                                  std::optional<Instance>* model,
                                  uint64_t max_conflicts) {
  for (uint32_t extra = 0; extra <= max_extra_nulls; ++extra) {
    Certainty c = Certainty::kUnknown;
    std::optional<Instance> m =
        FindModelAtSize(input, extra, avoid, &c, max_conflicts);
    if (c == Certainty::kYes) {
      if (model != nullptr) *model = std::move(m);
      return Certainty::kYes;
    }
  }
  return Certainty::kUnknown;  // bounded absence is not a proof
}

}  // namespace gfomq
