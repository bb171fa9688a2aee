// Differential suite for the probe escalation of CertainAnswerSolver: the
// shallow tableau, then the finite-model search, then the full-budget
// tableau. Every definite consistency, entailment and disjunction verdict
// of the escalating solver must agree with a solver configured with
// ground_extra_nulls = 0, which runs the full-budget tableau only; and
// every model the finite-model search returns for a multi-pair avoid list
// must be a model of the ontology that extends the input and answers none
// of the avoided pairs.
//
// The ModelContract suite checks the models that IsConsistent hands back,
// which the probe loops use to skip every atom a model falsifies: each is
// a model of the ontology that contains the input under the same element
// ids, and no atom it falsifies is certain.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz_rules.h"
#include "instance/eval.h"
#include "logic/normalize.h"
#include "logic/parser.h"
#include "reasoner/tableau.h"
#include "query/cq.h"
#include "reasoner/bouquet.h"
#include "reasoner/certain.h"
#include "reasoner/ground.h"

namespace gfomq {
namespace {

const char* Show(Certainty c) {
  switch (c) {
    case Certainty::kYes:
      return "kYes";
    case Certainty::kNo:
      return "kNo";
    default:
      return "kUnknown";
  }
}

// Agreement tallies: `compared` verdicts were definite on both sides,
// `decided_only_by_escalation` were left kUnknown by the full tableau.
struct Tally {
  uint64_t compared = 0;
  uint64_t decided_only_by_escalation = 0;
  uint64_t models_checked = 0;
};

void Agree(Certainty escalated, Certainty full, const std::string& what,
           Tally* tally) {
  if (escalated == Certainty::kUnknown || full == Certainty::kUnknown) {
    if (full == Certainty::kUnknown && escalated != Certainty::kUnknown) {
      ++tally->decided_only_by_escalation;
    }
    return;
  }
  ++tally->compared;
  EXPECT_EQ(escalated, full) << what << ": escalation " << Show(escalated)
                             << ", full tableau " << Show(full);
}

// q(x~) :- rel(x~) over the given tuple (its equality pattern kept).
Ucq AtomicQuery(const SymbolsPtr& sym, uint32_t rel,
                const std::vector<ElemId>& tuple) {
  Cq q;
  q.symbols = sym;
  std::vector<uint32_t> vars;
  for (size_t i = 0; i < tuple.size(); ++i) {
    uint32_t v = q.num_vars;
    for (size_t j = 0; j < i; ++j) {
      if (tuple[j] == tuple[i]) v = vars[j];
    }
    if (v == q.num_vars) ++q.num_vars;
    vars.push_back(v);
  }
  q.answer_vars = vars;
  q.atoms.push_back({rel, vars});
  return Ucq::Single(std::move(q));
}

// Every atomic query over `signature` (unary and binary relations) at
// every tuple of input elements that is not already a fact.
AvoidList AtomicCandidates(const Instance& input,
                           const std::vector<uint32_t>& signature) {
  AvoidList out;
  const SymbolsPtr& sym = input.symbols();
  const ElemId n = static_cast<ElemId>(input.NumElements());
  for (uint32_t rel : signature) {
    int arity = sym->RelArity(rel);
    std::vector<std::vector<ElemId>> tuples;
    if (arity == 1) {
      for (ElemId e = 0; e < n; ++e) tuples.push_back({e});
    } else if (arity == 2) {
      for (ElemId a = 0; a < n; ++a) {
        for (ElemId b = 0; b < n; ++b) tuples.push_back({a, b});
      }
    }
    for (auto& t : tuples) {
      if (input.HasFact(rel, t)) continue;
      out.emplace_back(AtomicQuery(sym, rel, t), std::move(t));
    }
  }
  return out;
}

// Runs consistency, every atomic entailment and the disjunction of the
// non-entailed atoms through both solvers and compares the verdicts.
void CompareProbes(CertainAnswerSolver& escalating, CertainAnswerSolver& full,
                   const Instance& input,
                   const std::vector<uint32_t>& signature,
                   const std::string& label, Tally* tally) {
  Certainty consistent = full.IsConsistent(input);
  Agree(escalating.IsConsistent(input), consistent,
        label + " consistency of " + input.ToString(), tally);
  AvoidList open;  // atoms neither solver finds entailed
  for (const auto& [q, t] : AtomicCandidates(input, signature)) {
    Certainty want = full.IsCertain(input, q, t);
    Certainty got = escalating.IsCertain(input, q, t);
    Agree(got, want, label + " entailment of " + q.ToString(), tally);
    if (want != Certainty::kYes && got != Certainty::kYes) {
      open.emplace_back(q, t);
    }
  }
  if (open.size() >= 2) {
    Agree(escalating.HasDisjunctionViolation(input, open),
          full.HasDisjunctionViolation(input, open),
          label + " disjunction of " + std::to_string(open.size()) +
              " atoms on " + input.ToString(),
          tally);
  }
}

// A small instance over the fuzz generator's levels: 2-3 elements, unary
// facts on the low levels, a sparse R.
Instance FuzzInstance(const SymbolsPtr& sym, Rng& rng) {
  Instance d(sym);
  uint32_t n = 2 + static_cast<uint32_t>(rng.Below(2));
  for (uint32_t i = 0; i < n; ++i) d.AddConstant("e" + std::to_string(i));
  for (uint32_t level = 0; level < 3; ++level) {
    for (ElemId e = 0; e < n; ++e) {
      if (rng.Chance(0.4)) d.AddFact(LevelRel(sym, level), {e});
    }
  }
  uint32_t rel_r = sym->Rel("R", 2);
  for (ElemId x = 0; x < n; ++x) {
    for (ElemId y = 0; y < n; ++y) {
      if (rng.Chance(0.3)) d.AddFact(rel_r, {x, y});
    }
  }
  return d;
}

CertainOptions FullTableauOnly() {
  CertainOptions o;
  o.ground_extra_nulls = 0;
  return o;
}

TEST(EscalationDifferential, FuzzRuleSetsAgreeWithFullTableau) {
  Tally tally;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(20261018000ull + seed);
    SymbolsPtr sym = MakeSymbols();
    RuleSet rules = RandomRules(sym, rng);
    Instance d = FuzzInstance(sym, rng);
    std::vector<uint32_t> signature;
    for (uint32_t level = 0; level < kLevels; ++level) {
      signature.push_back(LevelRel(sym, level));
    }
    CertainAnswerSolver escalating(rules);
    CertainAnswerSolver full(rules, FullTableauOnly());
    CompareProbes(escalating, full, d, signature,
                  "seed " + std::to_string(seed), &tally);
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first diverging seed " << seed;
    }
  }
  EXPECT_GT(tally.compared, 1000u);
}

// The paper's named ontologies (E3's O1, O2 and O1 ∪ O2, E8's covering
// disjunction and Example 7), an existential cycle the full tableau never
// saturates, and a two-step existential chain whose entailments (G, and
// the disjunction B1 ∨ B2 at the chain's root) need more fresh nulls than
// the bouquet has elements, so the shallow run cannot decide them and
// they reach the later stages.
struct Named {
  const char* name;
  const char* text;
};

const std::vector<Named>& NamedOntologies() {
  static const std::vector<Named> named = {
      {"O1", "forall x . (Hand(x) -> exists>=2 y (hasFinger(x,y)) & "
             "exists<=2 y (hasFinger(x,y)));"},
      {"O2", "forall x . (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y)));"},
      {"O1uO2",
       "forall x . (Hand(x) -> exists>=2 y (hasFinger(x,y)) & "
       "exists<=2 y (hasFinger(x,y)));"
       "forall x . (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y)));"},
      {"covering", "forall x . (A(x) -> B1(x) | B2(x));"},
      {"example7",
       "forall x (S(x,x) -> (R(x,x) -> exists y (R(x,y) & x != y) | "
       "exists y (S(x,y) & x != y)));"
       "forall x . (exists y (R(y,x) & x != y) -> exists y (Rp(x,y)));"
       "forall x . (exists y (S(y,x) & x != y) -> exists y (Sp(x,y)));"},
      {"cycle",
       "forall x . (A(x) -> exists y (R(x,y) & A(y)));"
       "forall x . (A(x) -> B(x));"},
      {"deep",
       "forall x . (A(x) -> exists y (R(x,y) & C(y)));"
       "forall x . (C(x) -> exists y (R(x,y) & D(y)));"
       "forall x . (D(x) -> E1(x) | E2(x));"
       "forall x, y (R(x,y) -> (E1(y) -> B1(x)));"
       "forall x, y (R(x,y) -> (E2(y) -> B2(x)));"
       "forall x, y (R(x,y) -> (B1(y) -> B1(x)));"
       "forall x, y (R(x,y) -> (B2(y) -> B2(x)));"
       "forall x, y (R(x,y) -> (D(y) -> F(x)));"
       "forall x, y (R(x,y) -> (F(y) -> G(x)));"},
  };
  return named;
}

TEST(EscalationDifferential, NamedOntologyBouquetsAgreeWithFullTableau) {
  for (const Named& named : NamedOntologies()) {
    SCOPED_TRACE(named.name);
    auto onto = ParseOntology(named.text);
    ASSERT_TRUE(onto.ok()) << onto.status().ToString();
    auto rules = NormalizeOntology(*onto);
    ASSERT_TRUE(rules.ok()) << rules.status().ToString();
    // The classify benchmark's tableau budget: the full tableau alone
    // leaves the existential cycle undecided within it.
    CertainOptions escalate_opts;
    escalate_opts.tableau.max_fresh_nulls = 20;
    CertainOptions full_opts = FullTableauOnly();
    full_opts.tableau.max_fresh_nulls = 20;
    CertainAnswerSolver escalating(*rules, escalate_opts);
    CertainAnswerSolver full(*rules, full_opts);
    GroundSolver ground(*rules);
    std::vector<uint32_t> signature = onto->Signature();
    BouquetOptions bouquets;
    bouquets.max_outdegree = 1;
    bouquets.max_bouquets = 64;
    Tally tally;
    ForEachBouquet(onto->symbols, signature, bouquets,
                   [&](const Instance& bouquet) {
      CompareProbes(escalating, full, bouquet, signature, named.name, &tally);
      // Models avoiding several pairs at once: the disjunction probe's
      // question, answered by the finite-model search alone.
      AvoidList avoid;
      for (auto& [q, t] : AtomicCandidates(bouquet, signature)) {
        if (escalating.IsCertain(bouquet, q, t) == Certainty::kNo) {
          avoid.emplace_back(std::move(q), std::move(t));
        }
      }
      std::optional<Instance> model;
      if (avoid.size() >= 2 &&
          ground.FindModel(bouquet, avoid, 2, &model) == Certainty::kYes) {
        ++tally.models_checked;
        EXPECT_TRUE(IsModelOf(*onto, *model))
            << "on " << bouquet.ToString() << "\nmodel: "
            << model->ToString();
        for (const Fact& f : bouquet.facts()) EXPECT_TRUE(model->HasFact(f));
        for (const auto& [q, t] : avoid) {
          EXPECT_FALSE(q.HasAnswer(*model, t))
              << "model answers " << q.ToString() << " on "
              << bouquet.ToString();
        }
      }
      return ::testing::Test::HasFailure();
    });
    EXPECT_GT(tally.compared, 0u);
    if (std::string(named.name) == "cycle") {
      // The chase of A never closes, but a one-null loop is a finite
      // model: only the escalation decides these probes.
      EXPECT_GT(tally.decided_only_by_escalation, 0u);
    }
    if (std::string(named.name) == "covering") {
      EXPECT_GT(tally.models_checked, 0u);
    }
  }
}

// Checks one model that IsConsistent handed back for `input` against the
// contract the probe loops rely on. `plain` is a solver with its own cache,
// so its entailment verdicts owe nothing to the model under test.
void ExpectModelContract(const Ontology& onto, CertainAnswerSolver& plain,
                         const Instance& input, const Instance& model,
                         const std::vector<uint32_t>& signature,
                         const std::string& label) {
  EXPECT_TRUE(IsModelOf(onto, model))
      << label << " on " << input.ToString() << "\nmodel: "
      << model.ToString();
  ASSERT_GE(model.NumElements(), input.NumElements()) << label;
  for (ElemId e = 0; e < input.NumElements(); ++e) {
    ASSERT_EQ(model.IsNull(e), input.IsNull(e)) << label << " element " << e;
    if (!input.IsNull(e)) {
      EXPECT_EQ(model.ElemName(e), input.ElemName(e)) << label;
    }
  }
  for (const Fact& f : input.facts()) {
    EXPECT_TRUE(model.HasFact(f)) << label << " lost an input fact";
  }
  for (const auto& [q, t] : AtomicCandidates(input, signature)) {
    if (q.HasAnswer(model, t)) continue;
    EXPECT_NE(plain.IsCertain(input, q, t), Certainty::kYes)
        << label << ": the model falsifies the certain atom " << q.ToString()
        << " on " << input.ToString();
  }
}

std::vector<uint32_t> LevelSignature(const SymbolsPtr& sym) {
  std::vector<uint32_t> signature;
  for (uint32_t level = 0; level < kLevels; ++level) {
    signature.push_back(LevelRel(sym, level));
  }
  signature.push_back(sym->Rel("R", 2));
  return signature;
}

TEST(ModelContract, FuzzSeedModelsKeepTheInput) {
  uint64_t models = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(20261018000ull + seed);
    SymbolsPtr sym = MakeSymbols();
    RuleSet rules = RandomRules(sym, rng);
    Instance d = FuzzInstance(sym, rng);
    auto onto = ParseOntology(RulesToText(rules), sym);
    ASSERT_TRUE(onto.ok()) << onto.status().ToString();
    CertainAnswerSolver plain(rules);
    // Models of the escalation's first two stages and of the full tableau.
    for (CertainOptions opts : {CertainOptions{}, FullTableauOnly()}) {
      CertainAnswerSolver solver(rules, opts);
      const std::string label = "seed " + std::to_string(seed) +
                                " ground_extra_nulls " +
                                std::to_string(opts.ground_extra_nulls);
      std::optional<Instance> model;
      Certainty consistent = solver.IsConsistent(d, &model);
      EXPECT_EQ(consistent, plain.IsConsistent(d)) << label;
      if (consistent != Certainty::kYes) {
        EXPECT_FALSE(model.has_value()) << label;
        continue;
      }
      // Constants never merge, so the model is never declined here.
      ASSERT_TRUE(model.has_value()) << label;
      ++models;
      ExpectModelContract(*onto, plain, d, *model, LevelSignature(sym),
                          label);
      // A memoized kYes carries no model: asking again searches again.
      std::optional<Instance> again;
      EXPECT_EQ(solver.IsConsistent(d, &again), Certainty::kYes) << label;
      EXPECT_TRUE(again.has_value()) << label;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first failing seed " << seed;
    }
  }
  EXPECT_GT(models, 100u);
}

TEST(ModelContract, NamedOntologyBouquetModelsKeepTheInput) {
  for (const Named& named : NamedOntologies()) {
    SCOPED_TRACE(named.name);
    auto onto = ParseOntology(named.text);
    ASSERT_TRUE(onto.ok()) << onto.status().ToString();
    auto rules = NormalizeOntology(*onto);
    ASSERT_TRUE(rules.ok()) << rules.status().ToString();
    CertainOptions opts;
    opts.tableau.max_fresh_nulls = 20;
    CertainAnswerSolver solver(*rules, opts);
    CertainAnswerSolver plain(*rules, opts);
    std::vector<uint32_t> signature = onto->Signature();
    BouquetOptions bouquets;
    bouquets.max_outdegree = 1;
    bouquets.max_bouquets = 64;
    uint64_t models = 0;
    ForEachBouquet(onto->symbols, signature, bouquets,
                   [&](const Instance& bouquet) {
      std::optional<Instance> model;
      if (solver.IsConsistent(bouquet, &model) == Certainty::kYes) {
        EXPECT_TRUE(model.has_value()) << bouquet.ToString();
        if (model) {
          ++models;
          ExpectModelContract(*onto, plain, bouquet, *model, signature,
                              named.name);
        }
      }
      return ::testing::Test::HasFailure();
    });
    EXPECT_GT(models, 0u);
  }
}

TEST(ModelContract, MergedInputNullsDeclineTheModel) {
  // R is functional, so the input nulls n1 and n2 are one element in every
  // model: no model keeps both ids apart, and the tableau merges one of
  // them away. The consistency probe must decline that model.
  auto onto = ParseOntology("func R; forall x . (A(x) -> B(x));");
  ASSERT_TRUE(onto.ok()) << onto.status().ToString();
  auto rules = NormalizeOntology(*onto);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  const SymbolsPtr& sym = onto->symbols;
  Instance d(sym);
  ElemId a = d.AddConstant("a");
  ElemId n1 = d.AddNull();
  ElemId n2 = d.AddNull();
  d.AddFact(sym->Rel("R", 2), {a, n1});
  d.AddFact(sym->Rel("R", 2), {a, n2});
  d.AddFact(sym->Rel("A", 1), {n2});

  Tableau tableau(*rules);
  EXPECT_EQ(tableau.IsConsistent(d), Certainty::kYes);
  EXPECT_FALSE(tableau.last_model().has_value());
  for (CertainOptions opts : {CertainOptions{}, FullTableauOnly()}) {
    CertainAnswerSolver solver(*rules, opts);
    std::optional<Instance> model;
    EXPECT_EQ(solver.IsConsistent(d, &model), Certainty::kYes);
    EXPECT_FALSE(model.has_value()) << model->ToString();
  }

  // Without a model CertainAnswers probes every tuple, as a loop does. The
  // entailment probes meet the same merge: B(n1) and B(n2) are certain, and
  // no probe may call them otherwise (the countermodel search cannot read
  // n2 in a model that renumbered it, so it answers kUnknown at worst).
  auto q = ParseUcq("q(x) :- B(x)", sym);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  CertainAnswerSolver solver(*rules);
  CertainAnswerSolver plain(*rules);
  std::set<std::vector<ElemId>> loop;
  for (ElemId e = 0; e < d.NumElements(); ++e) {
    Certainty c = plain.IsCertain(d, *q, {e});
    if (c == Certainty::kYes) loop.insert({e});
    if (e != a) EXPECT_NE(c, Certainty::kNo) << "element " << e;
  }
  EXPECT_EQ(solver.CertainAnswers(d, *q), loop);
}

TEST(ModelContract, CertainAnswersMatchPerTupleProbes) {
  uint64_t answered = 0;
  uint64_t inconsistent = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(20261018000ull + seed);
    SymbolsPtr sym = MakeSymbols();
    RuleSet rules = RandomRules(sym, rng);
    Instance d = FuzzInstance(sym, rng);
    std::vector<Ucq> queries;
    for (uint32_t level = 0; level < kLevels; ++level) {
      queries.push_back(AtomicQuery(sym, LevelRel(sym, level), {0}));
    }
    queries.push_back(AtomicQuery(sym, sym->Rel("R", 2), {0, 1}));
    CertainAnswerSolver solver(rules);
    CertainAnswerSolver plain(rules);
    if (plain.IsConsistent(d) == Certainty::kNo) ++inconsistent;
    for (const Ucq& q : queries) {
      std::set<std::vector<ElemId>> loop;
      std::set<std::vector<ElemId>> loop_unknown;
      const ElemId n = static_cast<ElemId>(d.NumElements());
      std::vector<ElemId> tuple(q.Arity(), 0);
      for (;;) {
        Certainty c = plain.IsCertain(d, q, tuple);
        if (c == Certainty::kYes) loop.insert(tuple);
        if (c == Certainty::kUnknown) loop_unknown.insert(tuple);
        size_t i = 0;
        for (; i < tuple.size(); ++i) {
          if (++tuple[i] < n) break;
          tuple[i] = 0;
        }
        if (i == tuple.size()) break;
      }
      std::vector<std::vector<ElemId>> unknown;
      std::set<std::vector<ElemId>> got = solver.CertainAnswers(d, q, &unknown);
      // The model can only decide what the loop left open.
      for (const std::vector<ElemId>& t : unknown) {
        EXPECT_TRUE(loop_unknown.count(t)) << "seed " << seed;
      }
      std::set<std::vector<ElemId>> diff;
      for (const auto& t : got) {
        if (!loop.count(t)) diff.insert(t);
      }
      for (const auto& t : loop) {
        if (!got.count(t)) diff.insert(t);
      }
      for (const auto& t : diff) {
        EXPECT_TRUE(loop_unknown.count(t))
            << "seed " << seed << " " << q.ToString() << " on "
            << d.ToString();
      }
      answered += got.size();
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first failing seed " << seed;
    }
  }
  EXPECT_GT(answered, 0u);
  EXPECT_GT(inconsistent, 0u);
}

}  // namespace
}  // namespace gfomq
