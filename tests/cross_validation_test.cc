// Cross-engine property tests: the tableau, the ground solver and the
// finite model checker are independent implementations of the same
// semantics; on random ontologies and instances they must agree.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "instance/eval.h"
#include "logic/normalize.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "reasoner/certain.h"
#include "reasoner/ground.h"

namespace gfomq {
namespace {

// A small random uGF ontology: subsumptions, disjunctions, existentials
// and universal propagation over a fixed signature.
Ontology RandomOntology(Rng& rng, SymbolsPtr sym) {
  std::vector<std::string> unary{"A", "B", "C"};
  std::vector<std::string> binary{"R", "S"};
  std::string text;
  int n = 2 + static_cast<int>(rng.Below(4));
  for (int i = 0; i < n; ++i) {
    const std::string& u1 = unary[rng.Below(unary.size())];
    const std::string& u2 = unary[rng.Below(unary.size())];
    const std::string& b = binary[rng.Below(binary.size())];
    switch (rng.Below(5)) {
      case 0:
        text += "forall x . (" + u1 + "(x) -> " + u2 + "(x));";
        break;
      case 1:
        text += "forall x . (" + u1 + "(x) -> " + u2 + "(x) | " +
                unary[rng.Below(unary.size())] + "(x));";
        break;
      case 2:
        text += "forall x . (" + u1 + "(x) -> exists y (" + b + "(x,y) & " +
                u2 + "(y)));";
        break;
      case 3:
        text += "forall x, y (" + b + "(x,y) -> (" + u1 + "(x) -> " + u2 +
                "(y)));";
        break;
      case 4:
        text += "forall x . (" + u1 + "(x) & " + u2 + "(x) -> false);";
        break;
    }
  }
  auto onto = ParseOntology(text, sym);
  EXPECT_TRUE(onto.ok()) << text;
  return *onto;
}

Instance RandomInstance(Rng& rng, SymbolsPtr sym, int salt) {
  Instance d(sym);
  std::vector<ElemId> es;
  int n = 2 + static_cast<int>(rng.Below(3));
  for (int i = 0; i < n; ++i) {
    es.push_back(d.AddConstant("e" + std::to_string(salt) + "_" +
                               std::to_string(i)));
  }
  for (const char* u : {"A", "B", "C"}) {
    uint32_t rel = sym->Rel(u, 1);
    for (ElemId e : es) {
      if (rng.Chance(0.3)) d.AddFact(rel, {e});
    }
  }
  for (const char* b : {"R", "S"}) {
    uint32_t rel = sym->Rel(b, 2);
    for (ElemId u : es) {
      for (ElemId v : es) {
        if (rng.Chance(0.2)) d.AddFact(rel, {u, v});
      }
    }
  }
  if (d.NumFacts() == 0) d.AddFact(sym->Rel("A", 1), {es[0]});
  return d;
}

TEST(CrossValidationTest, TableauModelsSatisfyTheOntology) {
  Rng rng(31337);
  for (int trial = 0; trial < 25; ++trial) {
    SymbolsPtr sym = MakeSymbols();
    Ontology onto = RandomOntology(rng, sym);
    Instance d = RandomInstance(rng, sym, trial);
    auto rules = NormalizeOntology(onto);
    ASSERT_TRUE(rules.ok());
    Tableau tableau(*rules);
    int models = 0;
    tableau.ForEachModel(d, [&](const Instance& model) {
      // Every saturated branch must be a genuine finite model of the
      // *original* ontology (checked by the independent evaluator) and an
      // extension of the input.
      EXPECT_TRUE(IsModelOf(onto, model))
          << "trial " << trial << "\nontology:\n"
          << OntologyToString(onto) << "input: " << d.ToString()
          << "\nmodel: " << model.ToString();
      for (const Fact& f : d.facts()) {
        EXPECT_TRUE(model.HasFact(f));
      }
      return ++models >= 5;  // a few branches per trial suffice
    });
  }
}

TEST(CrossValidationTest, GroundModelsSatisfyTheOntology) {
  Rng rng(999);
  for (int trial = 0; trial < 25; ++trial) {
    SymbolsPtr sym = MakeSymbols();
    Ontology onto = RandomOntology(rng, sym);
    Instance d = RandomInstance(rng, sym, trial);
    auto rules = NormalizeOntology(onto);
    ASSERT_TRUE(rules.ok());
    GroundSolver ground(*rules);
    // Plain models (consistency), then models that must also avoid
    // several (query, tuple) pairs at once — the list the disjunction
    // probe hands over.
    auto b = ParseCq("q(x) :- B(x)", sym);
    auto c = ParseCq("q(x) :- C(x)", sym);
    auto r = ParseCq("q() :- R(x,y), A(y)", sym);
    ASSERT_TRUE(b.ok() && c.ok() && r.ok());
    std::vector<AvoidList> lists = {
        {},
        {{Ucq::Single(*b), {0}}, {Ucq::Single(*c), {1}}},
        {{Ucq::Single(*b), {1}}, {Ucq::Single(*c), {0}},
         {Ucq::Single(*r), {}}},
    };
    for (const AvoidList& avoid : lists) {
      std::optional<Instance> model;
      if (ground.FindModel(d, avoid, 2, &model) != Certainty::kYes) continue;
      ASSERT_TRUE(model.has_value());
      EXPECT_TRUE(IsModelOf(onto, *model))
          << "trial " << trial << " avoiding " << avoid.size()
          << "\nontology:\n"
          << OntologyToString(onto) << "input: " << d.ToString()
          << "\nmodel: " << model->ToString();
      for (const Fact& f : d.facts()) EXPECT_TRUE(model->HasFact(f));
      for (const auto& [q, t] : avoid) {
        EXPECT_FALSE(q.HasAnswer(*model, t))
            << "trial " << trial << ": model answers " << q.ToString();
      }
    }
  }
}

TEST(CrossValidationTest, TableauAndGroundAgreeOnConsistency) {
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    SymbolsPtr sym = MakeSymbols();
    Ontology onto = RandomOntology(rng, sym);
    Instance d = RandomInstance(rng, sym, trial);
    auto rules = NormalizeOntology(onto);
    ASSERT_TRUE(rules.ok());
    Tableau tableau(*rules);
    Certainty t = tableau.IsConsistent(d);
    GroundSolver ground(*rules);
    Certainty g = ground.FindModel(d, /*avoid=*/{}, 2);
    // Ground "model found" must never contradict a tableau "inconsistent"
    // and vice versa.
    if (t == Certainty::kNo) {
      EXPECT_NE(g, Certainty::kYes)
          << "trial " << trial << "\n" << OntologyToString(onto);
    }
    if (g == Certainty::kYes && t != Certainty::kUnknown) {
      EXPECT_EQ(t, Certainty::kYes)
          << "trial " << trial << "\n" << OntologyToString(onto);
    }
  }
}

TEST(CrossValidationTest, CertainAnswersHoldInEverySampledModel) {
  Rng rng(777);
  for (int trial = 0; trial < 15; ++trial) {
    SymbolsPtr sym = MakeSymbols();
    Ontology onto = RandomOntology(rng, sym);
    Instance d = RandomInstance(rng, sym, trial);
    auto solver = CertainAnswerSolver::Create(onto);
    ASSERT_TRUE(solver.ok());
    if (solver->IsConsistent(d) != Certainty::kYes) continue;
    auto q = ParseCq("q(x) :- B(x)", sym);
    ASSERT_TRUE(q.ok());
    auto certain = solver->CertainAnswers(d, Ucq::Single(*q));
    auto rules = NormalizeOntology(onto);
    Tableau tableau(*rules);
    int models = 0;
    tableau.ForEachModel(d, [&](const Instance& model) {
      for (const auto& tuple : certain) {
        EXPECT_TRUE(q->HasAnswer(model, tuple))
            << "trial " << trial << ": certain answer missing in a model\n"
            << OntologyToString(onto);
      }
      return ++models >= 8;
    });
  }
}

TEST(CrossValidationTest, EntailedAtomsAreClosedUnderSubsumptionChains) {
  // Deterministic sanity net for the random suite: a chain A->B->C with
  // R-propagation must entail exactly the transitive closure facts.
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology(
      "forall x . (A(x) -> B(x));"
      "forall x . (B(x) -> C(x));"
      "forall x, y (R(x,y) -> (C(x) -> C(y)));",
      sym);
  ASSERT_TRUE(onto.ok());
  auto solver = CertainAnswerSolver::Create(*onto);
  ASSERT_TRUE(solver.ok());
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    Instance d = RandomInstance(rng, sym, 100 + trial);
    auto q = ParseCq("q(x) :- C(x)", sym);
    auto certain = solver->CertainAnswers(d, Ucq::Single(*q));
    // Reference: saturate by hand.
    std::set<ElemId> c_holds;
    uint32_t A = static_cast<uint32_t>(sym->FindRel("A"));
    uint32_t B = static_cast<uint32_t>(sym->FindRel("B"));
    uint32_t C = static_cast<uint32_t>(sym->FindRel("C"));
    uint32_t R = static_cast<uint32_t>(sym->FindRel("R"));
    for (const Fact& f : d.facts()) {
      if (f.rel == A || f.rel == B || f.rel == C) c_holds.insert(f.args[0]);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Fact& f : d.facts()) {
        if (f.rel == R && c_holds.count(f.args[0]) &&
            !c_holds.count(f.args[1])) {
          c_holds.insert(f.args[1]);
          changed = true;
        }
      }
    }
    std::set<std::vector<ElemId>> expected;
    for (ElemId e : c_holds) expected.insert({e});
    EXPECT_EQ(certain, expected) << "trial " << trial;
  }
}

TEST(CrossValidationTest, ModelCheckerAgreesWithTableauOnSentences) {
  // EvalSentence on counting: build interpretations and check counting
  // semantics directly.
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology(
      "forall x . (H(x) -> exists>=2 y (F(x,y)));", sym);
  ASSERT_TRUE(onto.ok());
  uint32_t H = static_cast<uint32_t>(sym->FindRel("H"));
  uint32_t F = static_cast<uint32_t>(sym->FindRel("F"));
  Instance one(sym);
  ElemId h = one.AddConstant("h");
  one.AddFact(H, {h});
  one.AddFact(F, {h, one.AddConstant("w1")});
  EXPECT_FALSE(IsModelOf(*onto, one));  // only one successor
  Instance two = one;
  two.AddFact(F, {h, two.AddConstant("w2")});
  EXPECT_TRUE(IsModelOf(*onto, two));
}

TEST(CrossValidationTest, FunctionalityEvalMatchesSemantics) {
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology("func F;", sym);
  ASSERT_TRUE(onto.ok());
  uint32_t F = static_cast<uint32_t>(sym->FindRel("F"));
  Instance good(sym);
  ElemId a = good.AddConstant("a");
  good.AddFact(F, {a, good.AddConstant("b")});
  EXPECT_TRUE(IsModelOf(*onto, good));
  Instance bad = good;
  bad.AddFact(F, {a, bad.AddConstant("c")});
  EXPECT_FALSE(IsModelOf(*onto, bad));
}

}  // namespace
}  // namespace gfomq
