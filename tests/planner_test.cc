#include "serve/planner.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "csp/csp.h"
#include "csp/csp_sat.h"
#include "datalog/engine.h"
#include "datalog/fo_rewriter.h"
#include "datalog/rewriter.h"
#include "logic/parser.h"
#include "query/cq.h"
#include "serve/plan.h"
#include "serve/session.h"

namespace gfomq::serve {
namespace {

Ontology MustOntology(const std::string& text, const SymbolsPtr& sym) {
  auto onto = ParseOntology(text, sym);
  EXPECT_TRUE(onto.ok()) << onto.status().ToString();
  return *onto;
}

Ucq MustUcq(const std::string& text, const SymbolsPtr& sym) {
  auto q = ParseUcq(text, sym);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

std::shared_ptr<OmqPlan> MustPlan(const Ontology& onto, PlanOptions opts) {
  auto plan = OmqPlan::Compile(onto, opts);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

PlanOptions Pinned(PlanBackend backend) {
  PlanOptions o;
  o.force_backend = backend;
  return o;
}

PlanOptions Assume(Certainty ptime) {
  PlanOptions o;
  o.assume_ptime = ptime;
  return o;
}

/// A random instance over the given (rel, arity) pairs.
Instance RandomDb(const SymbolsPtr& sym,
                  const std::vector<std::pair<uint32_t, int>>& rels,
                  size_t num_elems, size_t num_facts, uint64_t seed) {
  Rng rng(seed);
  Instance db(sym);
  std::vector<ElemId> es;
  for (size_t i = 0; i < num_elems; ++i) {
    es.push_back(db.AddConstant("e" + std::to_string(i)));
  }
  for (size_t i = 0; i < num_facts; ++i) {
    auto [rel, arity] = rels[rng.Below(rels.size())];
    std::vector<ElemId> args;
    for (int j = 0; j < arity; ++j) args.push_back(es[rng.Below(es.size())]);
    db.AddFact(rel, args);
  }
  return db;
}

// ---------------------------------------------------------------------------
// FO rewriter.

TEST(FoRewriterTest, HierarchyUnfoldsAndMatchesDatalogFixpoint) {
  SymbolsPtr sym = MakeSymbols();
  Ontology onto = MustOntology(
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));", sym);
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  auto rewrite = RewriteToDatalog(onto, q, {});
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();
  ASSERT_FALSE(rewrite->truncated);

  std::vector<uint32_t> edb = onto.Signature();
  FoRewriteResult fo = RewriteToUcq(rewrite->program, edb, {});
  ASSERT_TRUE(fo.ok) << "bail=" << static_cast<int>(fo.bail);
  EXPECT_GE(fo.ucq.disjuncts.size(), 3u);  // B(x) | A(x) | R(x,y)

  uint32_t rel_r = sym->Rel("R", 2);
  uint32_t rel_a = sym->Rel("A", 1);
  uint32_t rel_b = sym->Rel("B", 1);
  DatalogEngine engine(rewrite->program);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Instance db = RandomDb(sym, {{rel_r, 2}, {rel_a, 1}, {rel_b, 1}}, 6, 12,
                           seed * 977);
    EXPECT_EQ(fo.ucq.AllAnswers(db), engine.GoalTuples(db))
        << "seed " << seed;
  }
}

TEST(FoRewriterTest, MinimizationDropsSubsumedDisjuncts) {
  SymbolsPtr sym = MakeSymbols();
  Ontology onto = MustOntology(
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));", sym);
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  auto rewrite = RewriteToDatalog(onto, q, {});
  ASSERT_TRUE(rewrite.ok());
  FoRewriteOptions raw;
  raw.minimize = false;
  FoRewriteResult with = RewriteToUcq(rewrite->program, onto.Signature(), {});
  FoRewriteResult without =
      RewriteToUcq(rewrite->program, onto.Signature(), raw);
  ASSERT_TRUE(with.ok);
  ASSERT_TRUE(without.ok);
  EXPECT_LE(with.ucq.disjuncts.size(), without.ucq.disjuncts.size());
  // Equivalent either way.
  uint32_t rel_r = sym->Rel("R", 2);
  uint32_t rel_a = sym->Rel("A", 1);
  uint32_t rel_b = sym->Rel("B", 1);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Instance db = RandomDb(sym, {{rel_r, 2}, {rel_a, 1}, {rel_b, 1}}, 5, 10,
                           seed * 31);
    EXPECT_EQ(with.ucq.AllAnswers(db), without.ucq.AllAnswers(db));
  }
}

TEST(FoRewriterTest, BailsOnRecursiveProgram) {
  SymbolsPtr sym = MakeSymbols();
  auto program = ParseDatalog(
      "B(y) :- R(x,y), B(x); goal(x) :- B(x);", sym);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::vector<uint32_t> edb = {sym->Rel("R", 2), sym->Rel("B", 1)};
  FoRewriteResult fo = RewriteToUcq(*program, edb, {});
  EXPECT_FALSE(fo.ok);
  EXPECT_EQ(fo.bail, FoRewriteResult::Bail::kRecursive);
}

TEST(FoRewriterTest, BailsOnInequalityRule) {
  SymbolsPtr sym = MakeSymbols();
  auto program = ParseDatalog(
      "goal(x) :- R(x,y), x != y;", sym);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  FoRewriteResult fo = RewriteToUcq(*program, {sym->Rel("R", 2)}, {});
  EXPECT_FALSE(fo.ok);
  EXPECT_EQ(fo.bail, FoRewriteResult::Bail::kNeq);
}

TEST(FoRewriterTest, HeadVariableRepetitionMergesQueryVariables) {
  SymbolsPtr sym = MakeSymbols();
  // E2's rule head repeats a variable: unfolding goal(x,y) through it must
  // merge x and y (the rule instance forces them equal).
  auto program = ParseDatalog(
      "E2(x,x) :- A(x); goal(x,y) :- E2(x,y), B(x);", sym);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  uint32_t rel_a = sym->Rel("A", 1);
  uint32_t rel_b = sym->Rel("B", 1);
  uint32_t rel_e2 = sym->Rel("E2", 2);
  std::vector<uint32_t> edb = {rel_a, rel_b, rel_e2};
  FoRewriteResult fo = RewriteToUcq(*program, edb, {});
  ASSERT_TRUE(fo.ok) << "bail=" << static_cast<int>(fo.bail);
  DatalogEngine engine(*program);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Instance db = RandomDb(sym, {{rel_a, 1}, {rel_b, 1}, {rel_e2, 2}}, 5, 10,
                           seed * 131);
    EXPECT_EQ(fo.ucq.AllAnswers(db), engine.GoalTuples(db))
        << "seed " << seed;
  }
}

TEST(CompiledUcqTest, MatchesInterpretedUcq) {
  SymbolsPtr sym = MakeSymbols();
  Ucq q = MustUcq("q(x) :- R(x,y), A(y); q(x) :- B(x)", sym);
  CompiledUcq compiled(q);
  uint32_t rel_r = sym->Rel("R", 2);
  uint32_t rel_a = sym->Rel("A", 1);
  uint32_t rel_b = sym->Rel("B", 1);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Instance db = RandomDb(sym, {{rel_r, 2}, {rel_a, 1}, {rel_b, 1}}, 6, 14,
                           seed * 733);
    EXPECT_EQ(compiled.AllAnswers(db), q.AllAnswers(db)) << "seed " << seed;
    for (ElemId e = 0; e < db.NumElements(); ++e) {
      EXPECT_EQ(compiled.HasAnswer(db, {e}), q.HasAnswer(db, {e}));
    }
  }
}

// ---------------------------------------------------------------------------
// CSP/SAT backend.

Instance Clique(const SymbolsPtr& sym, int k) {
  Instance t(sym);
  uint32_t e_rel = sym->Rel("E", 2);
  std::vector<ElemId> es;
  for (int i = 0; i < k; ++i) {
    es.push_back(t.AddConstant("k" + std::to_string(i)));
  }
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i != j) {
        t.AddFact(e_rel,
                  {es[static_cast<size_t>(i)], es[static_cast<size_t>(j)]});
      }
    }
  }
  return t;
}

TEST(CspSatTest, DifferentialAgainstBacktrackingSolver) {
  SymbolsPtr sym = MakeSymbols();
  auto enc = EncodeTemplate(Clique(sym, 3), CspEncodingVariant::kEquality);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  CspSatSolver solver(enc->Index());
  uint32_t e_rel = sym->Rel("E", 2);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Instance g = RandomDb(sym, {{e_rel, 2}}, 5, 8, seed * 271);
    EXPECT_EQ(solver.Solve(g), SolveCsp(g, enc->templ)) << "seed " << seed;
  }
  CspSatStats stats = solver.stats();
  EXPECT_EQ(stats.solves, 30u);
  EXPECT_EQ(stats.sat + stats.unsat, 30u);
}

TEST(CspSatTest, PrecolouringPrunesCandidates) {
  SymbolsPtr sym = MakeSymbols();
  auto enc = EncodeTemplate(Clique(sym, 2), CspEncodingVariant::kEquality);
  ASSERT_TRUE(enc.ok());
  CspSatSolver solver(enc->Index());
  uint32_t e_rel = sym->Rel("E", 2);
  uint32_t p0 = enc->precolor_rels.at(0);
  uint32_t p1 = enc->precolor_rels.at(1);
  // A pinned edge with both endpoints forced to the same colour of K2 has
  // no homomorphism; distinct colours do.
  Instance bad(sym);
  ElemId a = bad.AddConstant("a");
  ElemId b = bad.AddConstant("b");
  bad.AddFact(e_rel, {a, b});
  bad.AddFact(p0, {a});
  bad.AddFact(p0, {b});
  EXPECT_FALSE(solver.Solve(bad));
  EXPECT_EQ(SolveCsp(bad, enc->templ), false);
  Instance good(sym);
  a = good.AddConstant("a");
  b = good.AddConstant("b");
  good.AddFact(e_rel, {a, b});
  good.AddFact(p0, {a});
  good.AddFact(p1, {b});
  EXPECT_TRUE(solver.Solve(good));
  EXPECT_EQ(SolveCsp(good, enc->templ), true);
}

TEST(CspSatTest, TemplateIndexIsBuiltOnceAndReused) {
  SymbolsPtr sym = MakeSymbols();
  auto enc = EncodeTemplate(Clique(sym, 2), CspEncodingVariant::kEquality);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->index_stats().builds, 0u);
  uint32_t e_rel = sym->Rel("E", 2);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Instance g = RandomDb(sym, {{e_rel, 2}}, 4, 5, seed * 613);
    SolveCspSat(g, *enc);  // each call fetches the cached index
  }
  CspIndexStats stats = enc->index_stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.reuses, 4u);
}

// ---------------------------------------------------------------------------
// Planner decisions.

TEST(PlannerTest, TruncatedRewritingFallsBackToTableau) {
  SymbolsPtr sym = MakeSymbols();
  // The ternary guard forces RewriteToDatalog to truncate its decoration
  // pools; a truncated program may be incomplete, so even a PTIME verdict
  // must not serve it — regression for the bug where OmqPlan did.
  Ontology onto =
      MustOntology("forall x, y, z (T(x,y,z) -> A(x));", sym);
  auto plan = MustPlan(onto, Assume(Certainty::kYes));
  auto compiled = plan->CompileQuery(MustUcq("q(x) :- A(x)", sym));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE((*compiled)->truncated);
  EXPECT_EQ((*compiled)->backend, PlanBackend::kTableau);
  EXPECT_EQ(plan->planner_stats().truncated_fallbacks, 1u);
  // The fallback is complete: the guard still derives A(a).
  Session session(plan);
  ASSERT_TRUE(
      session.RegisterQuery("q", MustUcq("q(x) :- A(x)", sym)).ok());
  ElemId a = session.AddConstant("a");
  ElemId b = session.AddConstant("b");
  ElemId c = session.AddConstant("c");
  ASSERT_TRUE(session.Assert(Fact{sym->Rel("T", 3), {a, b, c}}).ok());
  auto answers = session.Answers("q");
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->count({a}));
}

TEST(PlannerTest, UndecidedSweepProbesFallBackToTableau) {
  SymbolsPtr sym = MakeSymbols();
  // The chase of A never ends. Without fresh nulls and without the
  // finite-model search the sweep cannot decide whether A(x) entails B(x),
  // so it drops B(v0) :- A(v0) and the program answers {} on A(c). Such a
  // program must count its undecided probes and never serve.
  Ontology onto = MustOntology(
      "forall x . (A(x) -> exists y (R(x,y) & A(y)));"
      "forall x . (A(x) -> B(x));",
      sym);
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  PlanOptions opts = Assume(Certainty::kYes);
  opts.engine.certain.tableau.max_fresh_nulls = 0;
  opts.engine.certain.ground_extra_nulls = 0;
  RewriterOptions ropts = opts.engine.rewriter;
  ropts.certain = opts.engine.certain;
  auto rewrite = RewriteToDatalog(onto, q, ropts);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();
  EXPECT_FALSE(rewrite->truncated);
  EXPECT_GT(rewrite->undecided_probes, 0u);
  EXPECT_TRUE(rewrite->MaybeIncomplete());
  Instance db(sym);
  ElemId c = db.AddConstant("c");
  db.AddFact(sym->Rel("A", 1), {c});
  EXPECT_TRUE(DatalogEngine(rewrite->program).GoalTuples(db).empty());

  auto plan = MustPlan(onto, opts);
  auto compiled = plan->CompileQuery(q);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE((*compiled)->truncated);
  EXPECT_EQ((*compiled)->backend, PlanBackend::kTableau);
  EXPECT_EQ(plan->planner_stats().truncated_fallbacks, 1u);

  // Under the default budgets every probe is decided, and the rewriting
  // is served with the certain answer.
  auto decided = RewriteToDatalog(onto, q, {});
  ASSERT_TRUE(decided.ok());
  EXPECT_EQ(decided->undecided_probes, 0u);
  // The configurations' models settle the head atoms they falsify (R(x,x)
  // and B on the second element, among others) without a probe.
  EXPECT_GT(decided->model_settled_probes, 0u);
  EXPECT_EQ(DatalogEngine(decided->program).GoalTuples(db),
            (std::set<std::vector<ElemId>>{{c}}));
  auto served = MustPlan(onto, Assume(Certainty::kYes));
  auto served_query = served->CompileQuery(q);
  ASSERT_TRUE(served_query.ok());
  EXPECT_NE((*served_query)->backend, PlanBackend::kTableau);
  EXPECT_EQ(served->planner_stats().truncated_fallbacks, 0u);
}

TEST(PlannerTest, LookupQueryPicksFoRewrite) {
  SymbolsPtr sym = MakeSymbols();
  Ontology onto = MustOntology(
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));", sym);
  auto plan = MustPlan(onto, Assume(Certainty::kYes));
  auto compiled = plan->CompileQuery(MustUcq("q(x) :- B(x)", sym));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ((*compiled)->backend, PlanBackend::kFoRewrite);
  EXPECT_GT((*compiled)->fo_disjuncts, 0u);
  PlannerStats stats = plan->planner_stats();
  EXPECT_EQ(stats.chosen[static_cast<size_t>(PlanBackend::kFoRewrite)], 1u);
  EXPECT_EQ(stats.fo_built, 1u);
}

TEST(PlannerTest, RecursiveFamilyFallsBackToDatalog) {
  SymbolsPtr sym = MakeSymbols();
  // R propagates A_1 along edges: the rewriting is genuinely recursive, so
  // the FO unfolding bails and the fixpoint backend wins.
  Ontology onto = MustOntology(
      "forall x . (A0(x) -> A1(x)); "
      "forall x, y (R(x,y) -> (A1(x) -> A1(y)));",
      sym);
  auto plan = MustPlan(onto, Assume(Certainty::kYes));
  auto compiled = plan->CompileQuery(MustUcq("q(x) :- A1(x)", sym));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ((*compiled)->backend, PlanBackend::kDatalogRewrite);
  PlannerStats stats = plan->planner_stats();
  EXPECT_EQ(stats.fo_bailed, 1u);
}

TEST(PlannerTest, CspEncodingEnablesSatBackend) {
  SymbolsPtr sym = MakeSymbols();
  auto enc = EncodeTemplate(Clique(sym, 2), CspEncodingVariant::kEquality);
  ASSERT_TRUE(enc.ok());
  PlanOptions opts = Assume(Certainty::kNo);
  opts.csp_encoding = std::make_shared<const CspEncoding>(*enc);
  auto plan = MustPlan(enc->ontology, opts);
  Cq q;
  q.symbols = sym;
  q.num_vars = 1;
  q.answer_vars = {0};
  q.atoms = {{enc->query_rel, {0}}};
  auto compiled = plan->CompileQuery(Ucq::Single(q));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ((*compiled)->backend, PlanBackend::kCspSat);
  // A query over an ontology-constrained relation is not eligible.
  Cq q2;
  q2.symbols = sym;
  q2.num_vars = 2;
  q2.answer_vars = {0};
  q2.atoms = {{sym->Rel("E", 2), {0, 1}}};
  EXPECT_FALSE(plan->CspEligible(Ucq::Single(q2)));
}

TEST(PlannerTest, ForceBackendStillOverrides) {
  SymbolsPtr sym = MakeSymbols();
  Ontology onto = MustOntology(
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));", sym);
  auto plan = MustPlan(onto, Pinned(PlanBackend::kTableau));
  auto compiled = plan->CompileQuery(MustUcq("q(x) :- B(x)", sym));
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ((*compiled)->backend, PlanBackend::kTableau);

  // Pinning FO on a recursive family is an error, not a silent fallback.
  Ontology recursive = MustOntology(
      "forall x . (A0(x) -> A1(x)); "
      "forall x, y (R(x,y) -> (A1(x) -> A1(y)));",
      sym);
  auto fo_plan = MustPlan(recursive, Pinned(PlanBackend::kFoRewrite));
  EXPECT_FALSE(fo_plan->CompileQuery(MustUcq("q(x) :- A1(x)", sym)).ok());

  // Pinning CSP/SAT without an encoding is an error.
  auto csp_plan = MustPlan(onto, Pinned(PlanBackend::kCspSat));
  EXPECT_FALSE(csp_plan->CompileQuery(MustUcq("q(x) :- B(x)", sym)).ok());
}

// Regression: the planner once ranked backends by a measured latency EWMA
// (real µs) where one existed and a static pseudo-µs guess elsewhere. With
// the pruned rewriting, datalog's guess (20 + 2·rules) fell below FO's
// measured ~185 µs, so once FO had answered, the next query compiled on the
// same plan flipped to the fixpoint backend.
TEST(PlannerTest, MeasuredLatencyNeverFlipsFoToDatalog) {
  SymbolsPtr sym = MakeSymbols();
  Ontology onto = MustOntology(
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));", sym);
  auto plan = MustPlan(onto, Assume(Certainty::kYes));
  Session session(plan);
  ASSERT_TRUE(session.RegisterQuery("q", MustUcq("q(x) :- B(x)", sym)).ok());
  ElemId a = session.AddConstant("a");
  ElemId b = session.AddConstant("b");
  ASSERT_TRUE(session.Assert(Fact{sym->Rel("R", 2), {a, b}}).ok());
  ASSERT_TRUE(session.Answers("q").ok());
  for (int i = 0; i < 10; ++i) plan->CountAnswer(PlanBackend::kFoRewrite);
  const size_t fo = static_cast<size_t>(PlanBackend::kFoRewrite);
  EXPECT_EQ(plan->planner_stats().answers_computed[fo], 11u);

  auto second = plan->CompileQuery(MustUcq("q(y) :- A(y)", sym));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ((*second)->backend, PlanBackend::kFoRewrite);
  EXPECT_EQ(plan->planner_stats().chosen[fo], 2u);
}

TEST(PlannerTest, ChooseBackendPrefersCompleteCheapest) {
  PlannerInputs in;
  in.ptime_complete = true;
  in.fo_ok = true;
  in.csp_eligible = true;
  PlannerDecision d = ChooseBackend(in);
  EXPECT_EQ(d.backend, PlanBackend::kFoRewrite);
  EXPECT_FALSE(d.truncated_fallback);
  EXPECT_EQ(d.considered,
            (std::vector<PlanBackend>{
                PlanBackend::kFoRewrite, PlanBackend::kDatalogRewrite,
                PlanBackend::kCspSat, PlanBackend::kTableau}));

  // A recursive rewriting leaves datalog first.
  in.fo_ok = false;
  EXPECT_EQ(ChooseBackend(in).backend, PlanBackend::kDatalogRewrite);

  // Truncation removes datalog AND fo from the candidate set.
  in.fo_ok = true;
  in.rewrite_truncated = true;
  d = ChooseBackend(in);
  EXPECT_EQ(d.backend, PlanBackend::kCspSat);
  EXPECT_TRUE(d.truncated_fallback);
  in.csp_eligible = false;
  EXPECT_EQ(ChooseBackend(in).backend, PlanBackend::kTableau);
}

// ---------------------------------------------------------------------------
// Cross-backend differential storms through Session.

struct StormRig {
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::string> labels;
};

void RunStorm(StormRig* rig,
              const std::vector<std::pair<uint32_t, int>>& rels,
              size_t num_elems, size_t steps, uint64_t seed) {
  std::vector<std::vector<ElemId>> elems(rig->sessions.size());
  for (size_t s = 0; s < rig->sessions.size(); ++s) {
    for (size_t i = 0; i < num_elems; ++i) {
      elems[s].push_back(
          rig->sessions[s]->AddConstant("e" + std::to_string(i)));
    }
  }
  Rng rng(seed);
  for (size_t step = 0; step < steps; ++step) {
    auto [rel, arity] = rels[rng.Below(rels.size())];
    std::vector<size_t> idx;
    for (int j = 0; j < arity; ++j) idx.push_back(rng.Below(num_elems));
    bool is_assert = rng.Chance(0.65);
    for (size_t s = 0; s < rig->sessions.size(); ++s) {
      std::vector<ElemId> args;
      for (size_t j : idx) args.push_back(elems[s][j]);
      Fact f{rel, args};
      auto r = is_assert ? rig->sessions[s]->Assert(f)
                         : rig->sessions[s]->Retract(f);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    auto reference = rig->sessions[0]->Answers("q");
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (size_t s = 1; s < rig->sessions.size(); ++s) {
      auto answers = rig->sessions[s]->Answers("q");
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      EXPECT_EQ(*reference, *answers)
          << "step " << step << ": " << rig->labels[0] << " vs "
          << rig->labels[s];
    }
  }
}

TEST(PlannerDifferentialTest, LookupFamilyAllBackendsAgree) {
  SymbolsPtr sym = MakeSymbols();
  const std::string text =
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));";
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  StormRig rig;
  for (auto [label, opts] :
       std::vector<std::pair<std::string, PlanOptions>>{
           {"planner", Assume(Certainty::kYes)},
           {"fo", Pinned(PlanBackend::kFoRewrite)},
           {"datalog", Pinned(PlanBackend::kDatalogRewrite)},
           {"tableau", Pinned(PlanBackend::kTableau)}}) {
    auto plan = MustPlan(MustOntology(text, sym), opts);
    rig.sessions.push_back(std::make_unique<Session>(plan));
    rig.labels.push_back(label);
    ASSERT_TRUE(rig.sessions.back()->RegisterQuery("q", q).ok());
  }
  RunStorm(&rig,
           {{sym->Rel("R", 2), 2}, {sym->Rel("A", 1), 1},
            {sym->Rel("B", 1), 1}},
           5, 40, 0xfeed);
  // The planner chose FO for this lookup family…
  EXPECT_GT(rig.sessions[0]
                ->plan()
                ->planner_stats()
                .chosen[static_cast<size_t>(PlanBackend::kFoRewrite)],
            0u);
  // …and FO views are stateless: the storm's retracts ran no DRed.
  EXPECT_GT(rig.sessions[0]->stats().retracts, 0u);
  EXPECT_EQ(rig.sessions[0]->stats().dred_rounds, 0u);
  EXPECT_GT(rig.sessions[0]->stats().fo_evaluations, 0u);
  // The pinned datalog rig really did pay maintenance for the same storm.
  EXPECT_GT(rig.sessions[2]->stats().dred_rounds, 0u);
}

TEST(PlannerDifferentialTest, RecursiveFamilyAllBackendsAgree) {
  SymbolsPtr sym = MakeSymbols();
  const std::string text =
      "forall x . (A0(x) -> A1(x)); "
      "forall x, y (R(x,y) -> (A1(x) -> A1(y)));";
  Ucq q = MustUcq("q(x) :- A1(x)", sym);
  StormRig rig;
  for (auto [label, opts] :
       std::vector<std::pair<std::string, PlanOptions>>{
           {"planner", Assume(Certainty::kYes)},
           {"datalog", Pinned(PlanBackend::kDatalogRewrite)},
           {"tableau", Pinned(PlanBackend::kTableau)}}) {
    auto plan = MustPlan(MustOntology(text, sym), opts);
    rig.sessions.push_back(std::make_unique<Session>(plan));
    rig.labels.push_back(label);
    ASSERT_TRUE(rig.sessions.back()->RegisterQuery("q", q).ok());
  }
  RunStorm(&rig,
           {{sym->Rel("R", 2), 2}, {sym->Rel("A0", 1), 1},
            {sym->Rel("A1", 1), 1}},
           5, 30, 0xbeef);
  EXPECT_GT(rig.sessions[0]
                ->plan()
                ->planner_stats()
                .chosen[static_cast<size_t>(PlanBackend::kDatalogRewrite)],
            0u);
}

TEST(PlannerDifferentialTest, InconsistentBaseAnswersTheWholeDomain) {
  // U0(a), U1(a) make the base inconsistent, so every pair over {a, b, c}
  // is certain. The rewriting's domain must include b and c, which occur
  // only in a fact over the query's relation S, not over sig(O).
  SymbolsPtr sym = MakeSymbols();
  const std::string text = "forall x (U0(x) -> (U1(x) -> false));";
  Ucq q = MustUcq("q(x,y) :- S(x,y)", sym);
  uint32_t u0 = sym->Rel("U0", 1);
  uint32_t u1 = sym->Rel("U1", 1);
  uint32_t s_rel = sym->Rel("S", 2);
  for (auto [label, opts] :
       std::vector<std::pair<std::string, PlanOptions>>{
           {"planner", Assume(Certainty::kYes)},
           {"datalog", Pinned(PlanBackend::kDatalogRewrite)},
           {"tableau", Pinned(PlanBackend::kTableau)}}) {
    SCOPED_TRACE(label);
    Session session(MustPlan(MustOntology(text, sym), opts));
    ASSERT_TRUE(session.RegisterQuery("q", q).ok());
    ElemId a = session.AddConstant("a");
    ElemId b = session.AddConstant("b");
    ElemId c = session.AddConstant("c");
    ASSERT_TRUE(session.Assert({u0, {a}}).ok());
    ASSERT_TRUE(session.Assert({u1, {a}}).ok());
    ASSERT_TRUE(session.Assert({s_rel, {b, c}}).ok());
    auto answers = session.Answers("q");
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    std::set<std::vector<ElemId>> all;
    for (ElemId x : {a, b, c}) {
      for (ElemId y : {a, b, c}) all.insert({x, y});
    }
    EXPECT_EQ(*answers, all);
    if (label == "planner") {
      // The planner serves a rewriting here, not the tableau.
      EXPECT_EQ(session.plan()->planner_stats().chosen[static_cast<size_t>(
                    PlanBackend::kTableau)],
                0u);
    }
  }
}

TEST(PlannerDifferentialTest, CspFamilyAgreesWithTableau) {
  SymbolsPtr sym = MakeSymbols();
  auto enc = EncodeTemplate(Clique(sym, 2), CspEncodingVariant::kEquality);
  ASSERT_TRUE(enc.ok());
  auto shared_enc = std::make_shared<const CspEncoding>(*enc);
  Cq qcq;
  qcq.symbols = sym;
  qcq.num_vars = 1;
  qcq.answer_vars = {0};
  qcq.atoms = {{enc->query_rel, {0}}};
  Ucq q = Ucq::Single(qcq);

  PlanOptions planner_opts = Assume(Certainty::kNo);
  planner_opts.csp_encoding = shared_enc;
  StormRig rig;
  for (auto [label, opts] :
       std::vector<std::pair<std::string, PlanOptions>>{
           {"planner", planner_opts},
           {"tableau", Pinned(PlanBackend::kTableau)}}) {
    auto plan = MustPlan(enc->ontology, opts);
    rig.sessions.push_back(std::make_unique<Session>(plan));
    rig.labels.push_back(label);
    ASSERT_TRUE(rig.sessions.back()->RegisterQuery("q", q).ok());
  }
  // Edge churn over 4 nodes flips 2-colourability back and forth (odd
  // cycles appear and dissolve); N facts give the consistent states
  // non-trivial answers.
  RunStorm(&rig, {{sym->Rel("E", 2), 2}, {enc->query_rel, 1}}, 4, 25,
           0xc01d);
  EXPECT_GT(rig.sessions[0]->stats().csp_sat_solves, 0u);
  PlannerStats stats = rig.sessions[0]->plan()->planner_stats();
  EXPECT_GT(stats.chosen[static_cast<size_t>(PlanBackend::kCspSat)], 0u);
  EXPECT_GT(stats.csp_solves, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency (tsan tier: suite name matches the preset filter).

TEST(PlannerConcurrencyTest, SharedPlanCompilesAndRecordsConcurrently) {
  SymbolsPtr sym = MakeSymbols();
  Ontology onto = MustOntology(
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));", sym);
  auto plan = MustPlan(onto, Assume(Certainty::kYes));
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  uint32_t rel_b = sym->Rel("B", 1);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Session session(plan);
      EXPECT_TRUE(session.RegisterQuery("q", q).ok());
      ElemId e = session.AddConstant("t" + std::to_string(t));
      for (int i = 0; i < 25; ++i) {
        auto compiled = plan->CompileQuery(q);
        EXPECT_TRUE(compiled.ok());
        plan->CountAnswer((*compiled)->backend);
        ASSERT_TRUE(session.Assert(Fact{rel_b, {e}}).ok());
        auto answers = session.Answers("q");
        ASSERT_TRUE(answers.ok());
        EXPECT_TRUE(answers->count({e}));
        ASSERT_TRUE(session.Retract(Fact{rel_b, {e}}).ok());
        (void)plan->planner_stats();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(plan->planner_stats()
                .answers_computed[static_cast<size_t>(PlanBackend::kFoRewrite)],
            1u);
}

}  // namespace
}  // namespace gfomq::serve
