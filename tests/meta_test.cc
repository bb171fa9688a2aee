#include <gtest/gtest.h>

#include "logic/parser.h"
#include "reasoner/bouquet.h"
#include "reasoner/materializability.h"
#include "reasoner/twoplustwo.h"

namespace gfomq {
namespace {

TEST(MaterializabilityTest, DisjunctiveOntologyViolationFound) {
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology("forall x . (A(x) -> B1(x) | B2(x));", sym);
  ASSERT_TRUE(onto.ok());
  auto solver = CertainAnswerSolver::Create(*onto);
  ASSERT_TRUE(solver.ok());
  Instance d(sym);
  ElemId a = d.AddConstant("a");
  d.AddFact(static_cast<uint32_t>(sym->FindRel("A")), {a});
  bool conclusive = false;
  auto violation = FindDisjunctionViolation(*solver, d, onto->Signature(),
                                            &conclusive);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->disjuncts.size(), 2u);
}

TEST(MaterializabilityTest, HornOntologyHasNoViolation) {
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology(
      "forall x . (A(x) -> B(x)); forall x, y (R(x,y) -> (B(x) -> B(y)));",
      sym);
  ASSERT_TRUE(onto.ok());
  auto solver = CertainAnswerSolver::Create(*onto);
  ASSERT_TRUE(solver.ok());
  Instance d(sym);
  ElemId a = d.AddConstant("a");
  ElemId b = d.AddConstant("b");
  d.AddFact(static_cast<uint32_t>(sym->FindRel("A")), {a});
  d.AddFact(static_cast<uint32_t>(sym->FindRel("R")), {a, b});
  bool conclusive = false;
  auto violation =
      FindDisjunctionViolation(*solver, d, onto->Signature(), &conclusive);
  EXPECT_FALSE(violation.has_value());
  EXPECT_TRUE(conclusive);
}

TEST(MaterializabilityTest, HandThumbViolationOnFingerInstance) {
  // The O1 ∪ O2 phenomenon with exactly-2 fingers (small enough to probe).
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology(
      "forall x . (Hand(x) -> exists>=2 y (hasFinger(x,y)) & "
      "exists<=2 y (hasFinger(x,y)));"
      "forall x . (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y)));",
      sym);
  ASSERT_TRUE(onto.ok());
  auto solver = CertainAnswerSolver::Create(*onto);
  ASSERT_TRUE(solver.ok());
  Instance d(sym);
  ElemId h = d.AddConstant("h");
  d.AddFact(static_cast<uint32_t>(sym->FindRel("Hand")), {h});
  uint32_t has_finger = static_cast<uint32_t>(sym->FindRel("hasFinger"));
  ElemId f1 = d.AddConstant("f1");
  ElemId f2 = d.AddConstant("f2");
  d.AddFact(has_finger, {h, f1});
  d.AddFact(has_finger, {h, f2});
  bool conclusive = false;
  auto violation =
      FindDisjunctionViolation(*solver, d, onto->Signature(), &conclusive);
  ASSERT_TRUE(violation.has_value()) << "conclusive=" << conclusive;
  // Thumb(f1) ∨ Thumb(f2), neither certain.
  EXPECT_EQ(violation->disjuncts.size(), 2u);
}

TEST(BouquetTest, EnumerationIsDeduplicatedAndBounded) {
  SymbolsPtr sym = MakeSymbols();
  uint32_t A = sym->Rel("A", 1);
  uint32_t R = sym->Rel("R", 2);
  std::vector<uint32_t> signature{A, R};
  BouquetOptions opts;
  opts.max_outdegree = 1;
  int count = 0;
  BouquetScan scan = ForEachBouquet(sym, signature, opts,
                                    [&count](const Instance&) {
                                      ++count;
                                      return false;
                                    });
  EXPECT_EQ(scan, BouquetScan::kComplete);
  // Outdegree 0: root masks (2 unary x 2 loop) - empty = 3.
  // Outdegree 1: 4 root configs x 6 child types (2 unary x 3 edges) = 24.
  EXPECT_EQ(count, 27);
}

TEST(BouquetTest, IrreflexiveSkipsLoops) {
  SymbolsPtr sym = MakeSymbols();
  uint32_t R = sym->Rel("R", 2);
  std::vector<uint32_t> signature{R};
  BouquetOptions opts;
  opts.max_outdegree = 1;
  opts.irreflexive = true;
  int loops = 0;
  ForEachBouquet(sym, signature, opts, [&](const Instance& inst) {
    for (const Fact& f : inst.facts()) {
      if (f.rel == R && f.args[0] == f.args[1]) ++loops;
    }
    return false;
  });
  EXPECT_EQ(loops, 0);
}

TEST(BouquetTest, ScanOutcomesAreDistinguished) {
  // The three enumeration outcomes — complete, stopped by the callback,
  // budget-truncated — are distinct results; callers used to conflate
  // "budget exhausted" with "searched everything, found nothing".
  SymbolsPtr sym = MakeSymbols();
  uint32_t A = sym->Rel("A", 1);
  uint32_t R = sym->Rel("R", 2);
  std::vector<uint32_t> signature{A, R};
  BouquetOptions opts;
  opts.max_outdegree = 2;

  int total = 0;
  EXPECT_EQ(ForEachBouquet(sym, signature, opts,
                           [&](const Instance&) {
                             ++total;
                             return false;
                           }),
            BouquetScan::kComplete);
  ASSERT_GT(total, 5);

  opts.max_bouquets = 5;
  int truncated = 0;
  EXPECT_EQ(ForEachBouquet(sym, signature, opts,
                           [&](const Instance&) {
                             ++truncated;
                             return false;
                           }),
            BouquetScan::kBudgetExhausted);
  EXPECT_EQ(truncated, 5);

  opts.max_bouquets = 200000;
  int stopped_after = 0;
  EXPECT_EQ(ForEachBouquet(sym, signature, opts,
                           [&](const Instance&) {
                             return ++stopped_after == 3;
                           }),
            BouquetScan::kStopped);
  EXPECT_EQ(stopped_after, 3);
}

TEST(BouquetTest, MetaDecisionReportsBudgetExhaustionExplicitly) {
  // Same Horn ontology, two budgets: the truncated run must come back
  // kUnknown + budget_exhausted (NOT a silent kYes), the full run kYes.
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology(
      "forall x . (A(x) -> B(x)); forall x, y (R(x,y) -> (B(x) -> B(y)));",
      sym);
  ASSERT_TRUE(onto.ok());
  auto solver = CertainAnswerSolver::Create(*onto);
  ASSERT_TRUE(solver.ok());
  BouquetOptions opts;
  opts.max_outdegree = 2;
  opts.max_bouquets = 4;
  MetaDecision truncated =
      DecidePtimeByBouquets(*solver, sym, onto->Signature(), opts);
  EXPECT_EQ(truncated.ptime, Certainty::kUnknown);
  EXPECT_TRUE(truncated.budget_exhausted);
  EXPECT_EQ(truncated.bouquets_checked, 4u);

  opts.max_bouquets = 200000;
  MetaDecision full =
      DecidePtimeByBouquets(*solver, sym, onto->Signature(), opts);
  EXPECT_EQ(full.ptime, Certainty::kYes);
  EXPECT_FALSE(full.budget_exhausted);
}

TEST(BouquetTest, MetaDecisionTableauStatsAreThisRunsOwn) {
  // MetaSearchStats::tableau is a difference of the solver's cumulative
  // totals. Every tally must be in it — including the trail engine's — so
  // a second, fully memoized decision on the same solver reports no work.
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology(
      "forall x . (A(x) -> B(x)); forall x, y (R(x,y) -> (B(x) -> B(y)));",
      sym);
  ASSERT_TRUE(onto.ok());
  CertainOptions certain;
  certain.tableau.engine = TableauEngine::kTrail;
  auto solver = CertainAnswerSolver::Create(*onto, certain);
  ASSERT_TRUE(solver.ok());
  BouquetOptions opts;
  opts.max_outdegree = 1;
  MetaDecision first =
      DecidePtimeByBouquets(*solver, sym, onto->Signature(), opts);
  EXPECT_EQ(first.ptime, Certainty::kYes);
  EXPECT_GT(first.stats.tableau.steps, 0u);
  EXPECT_GT(first.stats.tableau.trail_entries, 0u);
  EXPECT_GT(first.stats.model_settled_probes, 0u);
  MetaDecision second =
      DecidePtimeByBouquets(*solver, sym, onto->Signature(), opts);
  EXPECT_EQ(second.ptime, Certainty::kYes);
  EXPECT_EQ(second.bouquets_checked, first.bouquets_checked);
  EXPECT_EQ(second.stats.tableau.steps, 0u);
  EXPECT_EQ(second.stats.tableau.trail_entries, 0u);
  EXPECT_EQ(second.stats.tableau.pop_levels, 0u);
  EXPECT_EQ(second.stats.cache.misses, 0u);
  EXPECT_EQ(second.stats.model_settled_probes, 0u);
}

TEST(BouquetTest, MetaDecisionHornIsPtime) {
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology("forall x . (A(x) -> B(x));", sym);
  ASSERT_TRUE(onto.ok());
  auto solver = CertainAnswerSolver::Create(*onto);
  ASSERT_TRUE(solver.ok());
  BouquetOptions opts;
  opts.max_outdegree = 2;
  MetaDecision md =
      DecidePtimeByBouquets(*solver, sym, onto->Signature(), opts);
  EXPECT_EQ(md.ptime, Certainty::kYes);
  EXPECT_GT(md.bouquets_checked, 0u);
}

TEST(BouquetTest, MetaDecisionDisjunctionIsHard) {
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology("forall x . (A(x) -> B1(x) | B2(x));", sym);
  ASSERT_TRUE(onto.ok());
  auto solver = CertainAnswerSolver::Create(*onto);
  ASSERT_TRUE(solver.ok());
  BouquetOptions opts;
  opts.max_outdegree = 1;
  MetaDecision md =
      DecidePtimeByBouquets(*solver, sym, onto->Signature(), opts);
  EXPECT_EQ(md.ptime, Certainty::kNo);
  ASSERT_TRUE(md.violation.has_value());
}

TEST(BouquetTest, MetaDecisionHandThumbTwoFingers) {
  // O1 ∪ O2 (exactly-2 variant) is not materializable: the bouquet search
  // must find the finger bouquet violation. O1 alone is materializable.
  SymbolsPtr sym = MakeSymbols();
  auto o1 = ParseOntology(
      "forall x . (Hand(x) -> exists>=2 y (hasFinger(x,y)) & "
      "exists<=2 y (hasFinger(x,y)));",
      sym);
  ASSERT_TRUE(o1.ok());
  auto o2 = ParseOntology(
      "forall x . (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y)));", sym);
  ASSERT_TRUE(o2.ok());
  Ontology both = Ontology::Union(*o1, *o2);

  auto solver_union = CertainAnswerSolver::Create(both);
  ASSERT_TRUE(solver_union.ok());
  BouquetOptions opts;
  opts.max_outdegree = 2;
  MetaDecision hard =
      DecidePtimeByBouquets(*solver_union, sym, both.Signature(), opts);
  EXPECT_EQ(hard.ptime, Certainty::kNo);
  ASSERT_TRUE(hard.violation.has_value());

  auto solver_o1 = CertainAnswerSolver::Create(*o1);
  ASSERT_TRUE(solver_o1.ok());
  MetaDecision easy =
      DecidePtimeByBouquets(*solver_o1, sym, o1->Signature(), opts);
  EXPECT_EQ(easy.ptime, Certainty::kYes);
}

TEST(TwoPlusTwoTest, BruteForceSolver) {
  TwoPlusTwoFormula f;
  f.num_vars = 2;
  f.clauses.push_back({0, 0, 1, 1});  // x ∨ ¬y
  f.clauses.push_back({1, 1, 0, 0});  // y ∨ ¬x
  EXPECT_TRUE(SolveTwoPlusTwo(f));    // x = y works

  // Truth constants make unsatisfiable formulas expressible:
  // (FALSE ∨ FALSE ∨ ¬TRUE ∨ ¬TRUE) is violated outright.
  TwoPlusTwoFormula g;
  g.num_vars = 0;
  g.clauses.push_back({kConstFalse, kConstFalse, kConstTrue, kConstTrue});
  EXPECT_FALSE(SolveTwoPlusTwo(g));

  // Forcing via constants: x must be true and false simultaneously.
  TwoPlusTwoFormula h;
  h.num_vars = 1;
  h.clauses.push_back({0, kConstFalse, kConstTrue, kConstTrue});  // x
  h.clauses.push_back({kConstFalse, kConstFalse, 0, kConstTrue});  // ¬x
  EXPECT_FALSE(SolveTwoPlusTwo(h));
  // Dropping the second clause restores satisfiability.
  h.clauses.pop_back();
  EXPECT_TRUE(SolveTwoPlusTwo(h));
}

TEST(TwoPlusTwoTest, ReductionMatchesSatisfiability) {
  // Ontology A → B1 ∨ B2 on D = {A(a)}: violation (B1(a), B2(a)).
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology("forall x . (A(x) -> B1(x) | B2(x));", sym);
  ASSERT_TRUE(onto.ok());
  auto solver = CertainAnswerSolver::Create(*onto);
  ASSERT_TRUE(solver.ok());
  Instance d(sym);
  ElemId a = d.AddConstant("a");
  d.AddFact(static_cast<uint32_t>(sym->FindRel("A")), {a});
  bool conclusive = false;
  auto violation =
      FindDisjunctionViolation(*solver, d, onto->Signature(), &conclusive);
  ASSERT_TRUE(violation.has_value());

  struct Case {
    TwoPlusTwoFormula formula;
    bool satisfiable;
  };
  std::vector<Case> cases;
  {
    // x=y: clauses x | !y and y | !x: satisfiable.
    TwoPlusTwoFormula f;
    f.num_vars = 2;
    f.clauses.push_back({0, 0, 1, 1});
    f.clauses.push_back({1, 1, 0, 0});
    cases.push_back({f, true});
  }
  {
    // x forced both ways via truth constants: unsatisfiable.
    TwoPlusTwoFormula f;
    f.num_vars = 1;
    f.clauses.push_back({0, kConstFalse, kConstTrue, kConstTrue});   // x
    f.clauses.push_back({kConstFalse, kConstFalse, 0, kConstTrue});  // !x
    cases.push_back({f, false});
  }
  {
    // Constant-only violated clause: unsatisfiable.
    TwoPlusTwoFormula f;
    f.num_vars = 1;
    f.clauses.push_back({kConstFalse, kConstFalse, kConstTrue, kConstTrue});
    cases.push_back({f, false});
  }
  {
    // Implication y | !x with both free: satisfiable.
    TwoPlusTwoFormula f;
    f.num_vars = 2;
    f.clauses.push_back({1, kConstFalse, 0, kConstTrue});
    cases.push_back({f, true});
  }
  for (const Case& c : cases) {
    EXPECT_EQ(SolveTwoPlusTwo(c.formula), c.satisfiable);
    auto reduction = BuildTwoPlusTwoReduction(*violation, c.formula);
    ASSERT_TRUE(reduction.ok()) << reduction.status().ToString();
    Certainty certain =
        solver->IsCertain(reduction->instance, reduction->query, {});
    EXPECT_EQ(certain,
              c.satisfiable ? Certainty::kNo : Certainty::kYes);
  }
}

TEST(TwoPlusTwoTest, ReductionDetectsForcedContradiction) {
  // Encode truth constants by pinning variables through the instance: give
  // variable 0 the "false" pin (its copy's B1 made impossible... not
  // expressible) — instead check an UNSAT-equivalent situation directly:
  // chain x→y, y→x plus clause requiring x ∨ ¬x is satisfiable; the
  // interesting UNSAT case needs constants, exercised in the bench via
  // formulas over pinned copies. Here we verify monotonicity: adding
  // clauses never turns a certain q~ uncertain.
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology("forall x . (A(x) -> B1(x) | B2(x));", sym);
  ASSERT_TRUE(onto.ok());
  auto solver = CertainAnswerSolver::Create(*onto);
  ASSERT_TRUE(solver.ok());
  Instance d(sym);
  ElemId a = d.AddConstant("a");
  d.AddFact(static_cast<uint32_t>(sym->FindRel("A")), {a});
  bool conclusive = false;
  auto violation =
      FindDisjunctionViolation(*solver, d, onto->Signature(), &conclusive);
  ASSERT_TRUE(violation.has_value());
  TwoPlusTwoFormula f;
  f.num_vars = 2;
  f.clauses.push_back({0, 0, 1, 1});
  auto r1 = BuildTwoPlusTwoReduction(*violation, f);
  ASSERT_TRUE(r1.ok());
  f.clauses.push_back({1, 1, 0, 0});
  auto r2 = BuildTwoPlusTwoReduction(*violation, f);
  ASSERT_TRUE(r2.ok());
  Certainty c1 = solver->IsCertain(r1->instance, r1->query, {});
  Certainty c2 = solver->IsCertain(r2->instance, r2->query, {});
  EXPECT_EQ(c1, Certainty::kNo);
  EXPECT_EQ(c2, Certainty::kNo);
}

}  // namespace
}  // namespace gfomq
