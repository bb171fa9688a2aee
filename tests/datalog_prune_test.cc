// Differential suite for PruneRedundantRules: the pruned rewriting that
// RewriteToDatalog returns must have exactly the fixpoint of the raw
// configuration sweep (RewriterOptions::prune_redundant_rules = false), fact
// for fact, on seeded random instances. Covers the named paper ontologies
// (E3's O1, O2, O1 ∪ O2; E8's covering disjunction and Example 7), the two
// serving ontologies, and seeded rule sets from the cross-engine fuzz
// generator (disjunctive ones included).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datalog/engine.h"
#include "datalog/rewriter.h"
#include "fuzz_rules.h"
#include "logic/parser.h"
#include "query/cq.h"

namespace gfomq {
namespace {

constexpr const char* kLookup =
    "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x)); "
    "forall x, y (S(x,y) -> B(y));";
constexpr const char* kChurn =
    "forall x . (A0(x) -> A1(x)); "
    "forall x, y (R(x,y) -> (A1(x) -> A1(y)));";

struct Rewritings {
  RewriteResult pruned;
  RewriteResult raw;
};

Rewritings RewriteBoth(const Ontology& onto, const Ucq& q) {
  RewriterOptions raw_opts;
  raw_opts.prune_redundant_rules = false;
  auto pruned = RewriteToDatalog(onto, q);
  auto raw = RewriteToDatalog(onto, q, raw_opts);
  EXPECT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_TRUE(raw.ok()) << raw.status().ToString();
  return {std::move(*pruned), std::move(*raw)};
}

/// A random instance over every relation of arity ≤ 2 that the ontology or
/// the query mentions (nulls included, so the engine sees both kinds).
Instance RandomInstance(const Ontology& onto, const Ucq& q, uint64_t seed) {
  std::set<uint32_t> rels;
  for (uint32_t r : onto.Signature()) rels.insert(r);
  for (const Cq& d : q.disjuncts) {
    for (const CqAtom& a : d.atoms) rels.insert(a.rel);
  }
  Rng rng(seed);
  Instance db(onto.symbols);
  std::vector<ElemId> es;
  const size_t n = 3 + rng.Below(3);
  for (size_t i = 0; i < n; ++i) {
    es.push_back(rng.Chance(0.2) ? db.AddNull()
                                 : db.AddConstant("e" + std::to_string(i)));
  }
  for (uint32_t rel : rels) {
    const int arity = onto.symbols->RelArity(rel);
    if (arity > 2) continue;
    const size_t facts = rng.Below(2 * n);
    for (size_t i = 0; i < facts; ++i) {
      std::vector<ElemId> args;
      for (int j = 0; j < arity; ++j) args.push_back(es[rng.Below(n)]);
      db.AddFact(rel, args);
    }
  }
  return db;
}

/// Asserts fixpoint equality of the pruned and raw rewritings on `trials`
/// seeded instances.
void ExpectSameFixpoints(const Ontology& onto, const Ucq& q, uint64_t seed,
                         int trials, const std::string& label) {
  Rewritings rw = RewriteBoth(onto, q);
  EXPECT_EQ(rw.raw.pruned_rules, 0u) << label;
  EXPECT_EQ(rw.pruned.pruned_rules,
            rw.raw.program.rules.size() - rw.pruned.program.rules.size())
      << label;
  DatalogEngine pruned(rw.pruned.program);
  DatalogEngine raw(rw.raw.program);
  size_t derived = 0;
  for (int t = 0; t < trials; ++t) {
    Instance db = RandomInstance(onto, q, seed * 7919 + t);
    Instance fix = pruned.Evaluate(db);
    EXPECT_EQ(fix.facts(), raw.Evaluate(db).facts())
        << label << " trial " << t;
    derived += fix.NumFacts() - db.NumFacts();
  }
  // Neither side is vacuous: the sweep had rules to drop, and the
  // instances made the programs derive facts.
  EXPECT_GT(rw.pruned.pruned_rules, 0u) << label;
  EXPECT_GT(derived, 0u) << label;
}

Ontology MustOntology(const std::string& text, const SymbolsPtr& sym) {
  auto onto = ParseOntology(text, sym);
  EXPECT_TRUE(onto.ok()) << text << ": " << onto.status().ToString();
  return *onto;
}

Ucq MustUcq(const std::string& text, const SymbolsPtr& sym) {
  auto q = ParseUcq(text, sym);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  return *q;
}

TEST(DatalogPruneTest, ServingRewritingsArePrunedToTheirCore) {
  SymbolsPtr sym = MakeSymbols();
  Ontology churn = MustOntology(kChurn, sym);
  Ucq churn_q = MustUcq("q(x) :- A1(x)", sym);
  Rewritings c = RewriteBoth(churn, churn_q);
  EXPECT_LE(c.pruned.program.rules.size(), 12u);
  EXPECT_GT(c.raw.program.rules.size(), c.pruned.program.rules.size());

  Ontology lookup = MustOntology(kLookup, sym);
  Ucq lookup_q = MustUcq("q(x) :- B(x)", sym);
  Rewritings l = RewriteBoth(lookup, lookup_q);
  EXPECT_LE(l.pruned.program.rules.size(), 20u);
  EXPECT_GT(l.raw.program.rules.size(), l.pruned.program.rules.size());

  // Pruning is idempotent: the served program has nothing left to drop.
  DatalogProgram again = l.pruned.program;
  EXPECT_EQ(PruneRedundantRules(&again), 0u);
}

TEST(DatalogPruneTest, ServingOntologiesKeepTheirFixpoints) {
  SymbolsPtr sym = MakeSymbols();
  ExpectSameFixpoints(MustOntology(kChurn, sym),
                      MustUcq("q(x) :- A1(x)", sym), 1, 12, "churn");
  ExpectSameFixpoints(MustOntology(kLookup, sym),
                      MustUcq("q(x) :- B(x)", sym), 2, 12, "lookup");
}

TEST(DatalogPruneTest, NamedOntologiesKeepTheirFixpoints) {
  struct Named {
    const char* label;
    const char* ontology;
    const char* query;
  };
  const std::vector<Named> named = {
      {"E3 O1 (exactly-2)",
       "forall x . (Hand(x) -> exists>=2 y (hasFinger(x,y)) & "
       "exists<=2 y (hasFinger(x,y)));",
       "q(x) :- hasFinger(x,y)"},
      {"E3 O2",
       "forall x . (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y)));",
       "q(x) :- hasFinger(x,y), Thumb(y)"},
      {"E3 O1 u O2",
       "forall x . (Hand(x) -> exists>=2 y (hasFinger(x,y)) & "
       "exists<=2 y (hasFinger(x,y)));"
       "forall x . (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y)));",
       "q(x) :- hasFinger(x,y), Thumb(y)"},
      {"E8 covering disjunction", "forall x . (A(x) -> B1(x) | B2(x));",
       "q(x) :- B1(x)"},
      {"E8 Example 7",
       "forall x (S(x,x) -> (R(x,x) -> exists y (R(x,y) & x != y) | "
       "exists y (S(x,y) & x != y)));"
       "forall x . (exists y (R(y,x) & x != y) -> exists y (Rp(x,y)));"
       "forall x . (exists y (S(y,x) & x != y) -> exists y (Sp(x,y)));",
       "q(x) :- Rp(x,y)"},
  };
  uint64_t seed = 100;
  for (const Named& n : named) {
    SymbolsPtr sym = MakeSymbols();
    ExpectSameFixpoints(MustOntology(n.ontology, sym),
                        MustUcq(n.query, sym), ++seed, 8, n.label);
  }
}

/// Renders a fuzz-generator rule set as ontology text. Only the shapes the
/// generator draws occur: a guard atom, optional body atoms, and head
/// alternatives of atoms, ⊥, or one existential unit.
std::string RulesToText(const RuleSet& rules) {
  const Symbols& sym = *rules.symbols;
  const char* names[] = {"x", "y"};
  auto atom = [&](const Lit& l) {
    std::string s = sym.RelName(l.rel) + "(";
    for (size_t i = 0; i < l.args.size(); ++i) {
      s += (i ? "," : "") + std::string(names[l.args[i]]);
    }
    return s + ")";
  };
  std::string text;
  for (const GuardedRule& r : rules.rules) {
    std::string head;
    for (const HeadAlt& alt : r.head) {
      std::vector<std::string> parts;
      if (alt.is_false) parts.push_back("false");
      for (const Lit& l : alt.lits) parts.push_back(atom(l));
      for (const ExistsUnit& e : alt.exists) {
        std::string unit = "exists y (" + atom(e.guard);
        for (const Lit& l : e.lits) unit += " & " + atom(l);
        parts.push_back(unit + ")");
      }
      std::string conj;
      for (const std::string& p : parts) {
        conj += (conj.empty() ? "" : " & ") + p;
      }
      head += (head.empty() ? "" : " | ") + conj;
    }
    for (const Lit& b : r.body) head = "(" + atom(b) + " -> " + head + ")";
    text += std::string("forall ") + (r.num_vars == 1 ? "x" : "x, y") +
            " (" + atom(r.guard) + " -> " + head + "); ";
  }
  return text;
}

TEST(DatalogPruneTest, FuzzOntologiesKeepTheirFixpoints) {
  int disjunctive = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    SymbolsPtr sym = MakeSymbols();
    RuleSet rules = RandomRules(sym, rng);
    for (const GuardedRule& r : rules.rules) {
      if (r.head.size() > 1) ++disjunctive;
    }
    const std::string text = RulesToText(rules);
    const std::string query =
        "q(x) :- U" + std::to_string(3 + rng.Below(3)) + "(x)";
    ExpectSameFixpoints(MustOntology(text, sym), MustUcq(query, sym),
                        1000 + seed, 6, text);
  }
  EXPECT_GT(disjunctive, 0);  // the generator always draws a disjunction
}

}  // namespace
}  // namespace gfomq
