#include "datalog/rewriter.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

namespace gfomq {

namespace {

// A configuration atom over k local elements.
struct ConfigAtom {
  uint32_t rel;
  std::vector<uint32_t> elems;  // indices 0..k-1

  auto operator<=>(const ConfigAtom&) const = default;
};

// Builds the decoration pool for a configuration over k elements.
std::vector<ConfigAtom> DecorationPool(const std::vector<uint32_t>& sig,
                                       const Symbols& symbols, uint32_t k,
                                       bool binary_decorations,
                                       const ConfigAtom* guard) {
  std::vector<ConfigAtom> pool;
  for (uint32_t rel : sig) {
    int arity = symbols.RelArity(rel);
    if (arity == 1) {
      for (uint32_t e = 0; e < k; ++e) pool.push_back({rel, {e}});
    } else if (arity == 2) {
      for (uint32_t a = 0; a < k; ++a) {
        for (uint32_t b = 0; b < k; ++b) {
          if (a != b && (!binary_decorations || k == 1)) continue;
          ConfigAtom atom{rel, {a, b}};
          if (guard != nullptr && atom == *guard) continue;
          pool.push_back(atom);
        }
      }
    }
    // Higher-arity decorations are omitted (documented truncation).
  }
  return pool;
}

void ForEachSubset(const std::vector<ConfigAtom>& pool, size_t max_size,
                   std::vector<ConfigAtom>* current, size_t start,
                   const std::function<void(const std::vector<ConfigAtom>&)>& fn) {
  fn(*current);
  if (current->size() >= max_size) return;
  for (size_t i = start; i < pool.size(); ++i) {
    current->push_back(pool[i]);
    ForEachSubset(pool, max_size, current, i + 1, fn);
    current->pop_back();
  }
}

}  // namespace

Result<RewriteResult> RewriteToDatalog(const Ontology& ontology,
                                       const Ucq& query,
                                       RewriterOptions options) {
  Result<CertainAnswerSolver> solver =
      CertainAnswerSolver::Create(ontology, options.certain);
  if (!solver.ok()) return solver.status();

  SymbolsPtr sym = ontology.symbols;
  RewriteResult result;
  result.program = DatalogProgram(sym);
  DatalogProgram& prog = result.program;

  std::vector<uint32_t> sig = ontology.Signature();
  // Track high-arity truncation.
  for (uint32_t rel : sig) {
    if (sym->RelArity(rel) > 2) result.truncated = true;
  }

  uint32_t goal = sym->Rel("goal", static_cast<int>(query.Arity()));
  uint32_t incons = sym->Rel("incons#", 0);
  uint32_t elem = sym->Rel("elem#", 1);
  prog.goal_rel = goal;

  std::set<std::string> emitted;  // cheap exact-duplicate filter
  auto emit = [&](DatalogRule rule) {
    // Render a canonical key.
    std::string key;
    auto add_atom = [&key](const DatalogAtom& a) {
      key += std::to_string(a.rel) + "(";
      for (uint32_t v : a.vars) key += std::to_string(v) + ",";
      key += ")";
    };
    add_atom(rule.head);
    key += ":-";
    std::sort(rule.body.begin(), rule.body.end(),
              [](const DatalogAtom& a, const DatalogAtom& b) {
                return std::tie(a.rel, a.vars) < std::tie(b.rel, b.vars);
              });
    for (const DatalogAtom& a : rule.body) add_atom(a);
    if (emitted.insert(key).second) prog.rules.push_back(std::move(rule));
  };

  // elem#(x) :- R(...,x,...) for every relation of sig(O) ∪ sig(q) and
  // every position: on an inconsistent database every tuple over this
  // domain is certain, the query's own relations included.
  std::set<uint32_t> domain_rels(sig.begin(), sig.end());
  for (const Cq& d : query.disjuncts) {
    for (const CqAtom& a : d.atoms) domain_rels.insert(a.rel);
  }
  for (uint32_t rel : domain_rels) {
    int arity = sym->RelArity(rel);
    for (int i = 0; i < arity; ++i) {
      DatalogRule r;
      r.num_vars = static_cast<uint32_t>(arity);
      std::vector<uint32_t> vars;
      for (int j = 0; j < arity; ++j) vars.push_back(static_cast<uint32_t>(j));
      r.body.push_back({rel, vars});
      r.head = {elem, {static_cast<uint32_t>(i)}};
      emit(std::move(r));
    }
  }
  // goal(x1..xk) :- incons#(), elem#(x1), ..., elem#(xk).
  {
    DatalogRule r;
    r.num_vars = static_cast<uint32_t>(query.Arity());
    r.body.push_back({incons, {}});
    std::vector<uint32_t> head_vars;
    for (uint32_t i = 0; i < query.Arity(); ++i) {
      r.body.push_back({elem, {i}});
      head_vars.push_back(i);
    }
    if (query.Arity() == 0) {
      // incons#() alone suffices; but bodies must be non-empty: it is.
    }
    r.head = {goal, head_vars};
    emit(std::move(r));
  }
  // Direct evaluation of each disjunct over the saturated database.
  for (const Cq& d : query.disjuncts) {
    DatalogRule r;
    r.num_vars = d.num_vars;
    for (const CqAtom& a : d.atoms) r.body.push_back({a.rel, a.vars});
    r.head = {goal, d.answer_vars};
    emit(std::move(r));
  }

  // Configuration enumeration: single elements (k = 1) and guard facts.
  struct ConfigShape {
    uint32_t k;
    std::optional<ConfigAtom> guard;
  };
  std::vector<ConfigShape> shapes;
  shapes.push_back({1, std::nullopt});
  for (uint32_t rel : sig) {
    int arity = sym->RelArity(rel);
    if (arity == 2) {
      shapes.push_back({2, ConfigAtom{rel, {0, 1}}});
    } else if (arity > 2) {
      result.truncated = true;  // higher-arity guards not enumerated
    }
  }

  for (const ConfigShape& shape : shapes) {
    std::vector<ConfigAtom> pool =
        DecorationPool(sig, *sym, shape.k, options.binary_decorations,
                       shape.guard ? &*shape.guard : nullptr);
    std::vector<ConfigAtom> current;
    ForEachSubset(
        pool, options.max_decoration_size, &current, 0,
        [&](const std::vector<ConfigAtom>& decoration) {
          std::vector<ConfigAtom> config = decoration;
          if (shape.guard) config.push_back(*shape.guard);
          if (config.empty()) return;  // need at least one body atom
          ++result.configurations_explored;
          // Build the configuration instance.
          Instance inst(sym);
          std::vector<ElemId> elems;
          for (uint32_t i = 0; i < shape.k; ++i) {
            elems.push_back(inst.AddConstant("c" + std::to_string(i)));
          }
          for (const ConfigAtom& a : config) {
            std::vector<ElemId> args;
            for (uint32_t e : a.elems) args.push_back(elems[e]);
            inst.AddFact(a.rel, std::move(args));
          }
          auto body_of_config = [&]() {
            std::vector<DatalogAtom> body;
            for (const ConfigAtom& a : config) {
              std::vector<uint32_t> vars(a.elems.begin(), a.elems.end());
              body.push_back({a.rel, std::move(vars)});
            }
            return body;
          };
          // Every probe below emits its rule on kYes only; count the ones
          // that stay undecided (a rule they may have dropped).
          auto decided = [&](Certainty c) {
            if (c == Certainty::kUnknown) ++result.undecided_probes;
            return c;
          };
          // Inconsistent configuration: emit incons#().
          std::optional<Instance> model;
          if (decided(solver->IsConsistent(inst, &model)) == Certainty::kNo) {
            DatalogRule r;
            r.num_vars = shape.k;
            r.body = body_of_config();
            r.head = {incons, {}};
            emit(std::move(r));
            return;  // everything else is vacuous
          }
          // An atom or match that the configuration's model falsifies is
          // not certain: its probe could not emit a rule.
          auto settled = [&](const Cq& q, const std::vector<ElemId>& tuple) {
            if (!model || q.HasAnswer(*model, tuple)) return false;
            ++result.model_settled_probes;
            return true;
          };
          // Entailed atomic consequences.
          for (uint32_t rel : sig) {
            int arity = sym->RelArity(rel);
            if (arity > 2) continue;
            std::vector<std::vector<ElemId>> tuples;
            if (arity == 1) {
              for (ElemId e : elems) tuples.push_back({e});
            } else {
              for (ElemId a : elems) {
                for (ElemId b : elems) tuples.push_back({a, b});
              }
            }
            for (const auto& tuple : tuples) {
              if (inst.HasFact(rel, tuple)) continue;
              // Build the atomic query q(x~) :- rel(x~).
              Cq atomic;
              atomic.symbols = sym;
              std::map<ElemId, uint32_t> var_of;
              std::vector<uint32_t> qvars;
              for (ElemId e : tuple) {
                auto it = var_of.find(e);
                if (it == var_of.end()) {
                  it = var_of.emplace(e, atomic.num_vars++).first;
                }
                qvars.push_back(it->second);
              }
              atomic.atoms.push_back({rel, qvars});
              atomic.answer_vars = qvars;
              if (settled(atomic, tuple)) continue;
              if (decided(solver->IsCertain(inst, atomic, tuple)) ==
                  Certainty::kYes) {
                DatalogRule r;
                r.num_vars = shape.k;
                r.body = body_of_config();
                std::vector<uint32_t> head_vars(tuple.begin(), tuple.end());
                r.head = {rel, head_vars};
                emit(std::move(r));
              }
            }
          }
          // Entailed query matches hooked at this configuration.
          for (const Cq& d : query.disjuncts) {
            // Enumerate assignments of answer variables to config elements.
            size_t arity = d.answer_vars.size();
            std::vector<ElemId> tuple(arity, 0);
            for (;;) {
              if (!settled(d, tuple) &&
                  decided(solver->IsCertain(inst, d, tuple)) ==
                      Certainty::kYes) {
                DatalogRule r;
                r.num_vars = shape.k;
                r.body = body_of_config();
                std::vector<uint32_t> head_vars(tuple.begin(), tuple.end());
                r.head = {goal, head_vars};
                emit(std::move(r));
              }
              size_t i = 0;
              for (; i < arity; ++i) {
                if (++tuple[i] < shape.k) break;
                tuple[i] = 0;
              }
              if (i == arity) break;
              if (arity == 0) break;
            }
          }
        });
  }

  if (options.prune_redundant_rules) {
    result.pruned_rules = PruneRedundantRules(&prog);
  }
  Status v = prog.Validate();
  if (!v.ok()) return v;
  result.cache = solver->cache_stats();
  return result;
}

}  // namespace gfomq
