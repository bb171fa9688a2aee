#include "serve/session.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "logic/parser.h"
#include "query/cq.h"
#include "serve/plan.h"

namespace gfomq::serve {
namespace {

PlanOptions Pinned(PlanBackend backend) {
  PlanOptions o;
  o.force_backend = backend;
  return o;
}

std::shared_ptr<OmqPlan> MustCompile(const std::string& onto_text,
                                     const SymbolsPtr& sym,
                                     PlanOptions opts) {
  auto onto = ParseOntology(onto_text, sym);
  EXPECT_TRUE(onto.ok()) << onto.status().ToString();
  auto plan = OmqPlan::Compile(*onto, opts);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

Ucq MustUcq(const std::string& text, const SymbolsPtr& sym) {
  auto q = ParseUcq(text, sym);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

/// From-scratch reference: a fresh engine over the compiled rewriting,
/// evaluated on the session's current base. Incremental answers must be
/// bit-identical to this on every step.
std::set<std::vector<ElemId>> Scratch(const CompiledQuery& cq,
                                      const Instance& db) {
  DatalogEngine engine(cq.program);
  return engine.GoalTuples(db);
}

TEST(OmqPlanTest, ClassifiedHornOntologyCompiles) {
  SymbolsPtr sym = MakeSymbols();
  // Tiny Horn ontology: the meta decision runs for real ("classify once").
  auto plan = MustCompile(
      "forall x . (A(x) -> B(x)); forall x . (B(x) -> C(x));", sym, {});
  // PTIME verdicts pin the Datalog backend; an exhausted budget falls back
  // to the (always complete) tableau. Either way the mapping must hold.
  if (plan->verdict().ptime == Certainty::kYes) {
    EXPECT_EQ(plan->backend(), PlanBackend::kDatalogRewrite);
  } else if (plan->verdict().ptime == Certainty::kNo) {
    EXPECT_EQ(plan->backend(), PlanBackend::kTableau);
  } else {
    EXPECT_EQ(plan->backend(), plan->options().unknown_backend);
  }
  EXPECT_GT(plan->compile_micros(), 0u);
}

TEST(OmqPlanTest, ForcedBackendSkipsMetaDecision) {
  SymbolsPtr sym = MakeSymbols();
  auto plan = MustCompile("forall x . (A(x) -> B(x));", sym,
                          Pinned(PlanBackend::kDatalogRewrite));
  EXPECT_EQ(plan->backend(), PlanBackend::kDatalogRewrite);
  EXPECT_EQ(plan->verdict().ptime, Certainty::kUnknown);
  EXPECT_EQ(plan->verdict().bouquets_checked, 0u);
}

TEST(OmqPlanTest, QueryCompilationsAreMemoized) {
  SymbolsPtr sym = MakeSymbols();
  auto plan = MustCompile("forall x . (A(x) -> B(x));", sym,
                          Pinned(PlanBackend::kDatalogRewrite));
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  auto c1 = plan->CompileQuery(q);
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  auto c2 = plan->CompileQuery(q);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c1->get(), c2->get());  // the same interned artifact
  EXPECT_EQ(plan->query_compilations(), 1u);
  EXPECT_EQ(plan->query_cache_hits(), 1u);
}

TEST(PlanCacheTest, SameOntologyTextSharesOnePlan) {
  SymbolsPtr sym = MakeSymbols();
  const std::string text = "forall x . (A(x) -> B(x));";
  auto o1 = ParseOntology(text, sym);
  auto o2 = ParseOntology(text, sym);
  ASSERT_TRUE(o1.ok() && o2.ok());
  PlanCache cache(Pinned(PlanBackend::kDatalogRewrite));
  auto p1 = cache.GetOrCompile(*o1);
  auto p2 = cache.GetOrCompile(*o2);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ((*p1)->id(), (*p2)->id());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, FingerprintSeparatesSymbolTables) {
  // Identical text over distinct symbol tables must NOT share a plan: the
  // compiled rewritings carry table-relative relation ids.
  SymbolsPtr s1 = MakeSymbols();
  SymbolsPtr s2 = MakeSymbols();
  auto o1 = ParseOntology("forall x . (A(x) -> B(x));", s1);
  auto o2 = ParseOntology("forall x . (A(x) -> B(x));", s2);
  ASSERT_TRUE(o1.ok() && o2.ok());
  EXPECT_NE(PlanCache::Fingerprint(*o1), PlanCache::Fingerprint(*o2));
}

TEST(ServeSessionTest, AssertOnlyIncrementalMatchesScratch) {
  SymbolsPtr sym = MakeSymbols();
  auto plan = MustCompile(
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));", sym,
      Pinned(PlanBackend::kDatalogRewrite));
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  auto compiled = plan->CompileQuery(q);
  ASSERT_TRUE(compiled.ok());

  Session session(plan);
  ASSERT_TRUE(session.RegisterQuery("q", q).ok());
  uint32_t R = static_cast<uint32_t>(sym->FindRel("R"));
  uint32_t A = static_cast<uint32_t>(sym->FindRel("A"));

  Rng rng(11);
  std::vector<ElemId> es;
  for (int i = 0; i < 8; ++i) {
    es.push_back(session.AddConstant("c" + std::to_string(i)));
  }
  for (int step = 0; step < 40; ++step) {
    if (rng.Chance(0.5)) {
      session.Assert(Fact{R, {es[rng.Below(es.size())],
                              es[rng.Below(es.size())]}});
    } else {
      session.Assert(Fact{A, {es[rng.Below(es.size())]}});
    }
    auto got = session.Answers("q");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, Scratch(**compiled, session.db())) << "step " << step;
  }
  // One from-scratch fixpoint at view init; everything after was delta.
  EXPECT_EQ(session.stats().full_evaluations, 1u);
  EXPECT_GT(session.stats().incremental_refreshes, 0u);
  EXPECT_EQ(session.stats().dred_rounds, 0u);
}

TEST(ServeSessionTest, RetractionDredMatchesScratch) {
  SymbolsPtr sym = MakeSymbols();
  auto plan = MustCompile(
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));"
      "forall x, y (S(x,y) -> B(y));",
      sym, Pinned(PlanBackend::kDatalogRewrite));
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  auto compiled = plan->CompileQuery(q);
  ASSERT_TRUE(compiled.ok());

  Session session(plan);
  ASSERT_TRUE(session.RegisterQuery("q", q).ok());
  uint32_t R = static_cast<uint32_t>(sym->FindRel("R"));
  uint32_t S = static_cast<uint32_t>(sym->FindRel("S"));
  uint32_t A = static_cast<uint32_t>(sym->FindRel("A"));

  Rng rng(23);
  std::vector<ElemId> es;
  for (int i = 0; i < 6; ++i) {
    es.push_back(session.AddConstant("d" + std::to_string(i)));
  }
  auto random_fact = [&]() -> Fact {
    switch (rng.Below(3)) {
      case 0:
        return Fact{R, {es[rng.Below(es.size())], es[rng.Below(es.size())]}};
      case 1:
        return Fact{S, {es[rng.Below(es.size())], es[rng.Below(es.size())]}};
      default:
        return Fact{A, {es[rng.Below(es.size())]}};
    }
  };
  // Warm-up population, then a seeded assert/retract storm with a
  // differential check after every delta.
  for (int i = 0; i < 15; ++i) session.Assert(random_fact());
  for (int step = 0; step < 60; ++step) {
    Fact f = random_fact();
    if (rng.Chance(0.45)) {
      session.Retract(f);
    } else {
      session.Assert(f);
    }
    auto got = session.Answers("q");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, Scratch(**compiled, session.db())) << "step " << step;
  }
  EXPECT_EQ(session.stats().full_evaluations, 1u);
  EXPECT_GT(session.stats().dred_rounds, 0u);
  EXPECT_GT(session.stats().retracts, 0u);
}

TEST(ServeSessionTest, RetractThenReassertRoundTrips) {
  SymbolsPtr sym = MakeSymbols();
  auto plan = MustCompile("forall x . (A(x) -> B(x));", sym,
                          Pinned(PlanBackend::kDatalogRewrite));
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  auto compiled = plan->CompileQuery(q);
  ASSERT_TRUE(compiled.ok());
  Session session(plan);
  ASSERT_TRUE(session.RegisterQuery("q", q).ok());
  uint32_t A = static_cast<uint32_t>(sym->FindRel("A"));
  ElemId a = session.AddConstant("a");
  ElemId b = session.AddConstant("b");
  session.Assert(Fact{A, {a}});
  session.Assert(Fact{A, {b}});
  auto initial = session.Answers("q");
  ASSERT_TRUE(initial.ok());
  EXPECT_EQ(initial->size(), 2u);

  // Retract, observe, re-assert, observe: both states must equal scratch.
  ASSERT_TRUE(*session.Retract(Fact{A, {a}}));
  auto afterRetract = session.Answers("q");
  ASSERT_TRUE(afterRetract.ok());
  EXPECT_EQ(afterRetract->size(), 1u);
  EXPECT_EQ(*afterRetract, Scratch(**compiled, session.db()));

  ASSERT_TRUE(*session.Assert(Fact{A, {a}}));
  auto roundTrip = session.Answers("q");
  ASSERT_TRUE(roundTrip.ok());
  EXPECT_EQ(*roundTrip, *initial);
  EXPECT_EQ(*roundTrip, Scratch(**compiled, session.db()));

  // Retract-then-reassert *between* two syncs cancels entirely: the lazy
  // fold sees zero net delta and runs no maintenance round.
  uint64_t dred = session.stats().dred_rounds;
  uint64_t incr = session.stats().incremental_refreshes;
  ASSERT_TRUE(*session.Retract(Fact{A, {b}}));
  ASSERT_TRUE(*session.Assert(Fact{A, {b}}));
  auto unchanged = session.Answers("q");
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(*unchanged, *initial);
  EXPECT_EQ(session.stats().dred_rounds, dred);
  EXPECT_EQ(session.stats().incremental_refreshes, incr);
}

TEST(ServeSessionTest, RetractingDerivableFactKeepsItCertain) {
  SymbolsPtr sym = MakeSymbols();
  auto plan = MustCompile("forall x . (A(x) -> B(x));", sym,
                          Pinned(PlanBackend::kDatalogRewrite));
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  auto compiled = plan->CompileQuery(q);
  ASSERT_TRUE(compiled.ok());
  Session session(plan);
  ASSERT_TRUE(session.RegisterQuery("q", q).ok());
  uint32_t A = static_cast<uint32_t>(sym->FindRel("A"));
  uint32_t B = static_cast<uint32_t>(sym->FindRel("B"));
  ElemId a = session.AddConstant("a");
  session.Assert(Fact{A, {a}});
  session.Assert(Fact{B, {a}});
  EXPECT_EQ(session.Answers("q")->size(), 1u);
  // B(a) leaves the base, but A(a) still derives it: the rederive pass
  // must restore the answer (matching from-scratch semantics).
  ASSERT_TRUE(*session.Retract(Fact{B, {a}}));
  auto got = session.Answers("q");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 1u);
  EXPECT_EQ(*got, Scratch(**compiled, session.db()));
}

// DRed locality: a retraction in a small component must cost work
// proportional to that component, not to the whole view (the rederive step
// used to re-seed semi-naive evaluation with every fact of the view).
TEST(ServeSessionTest, RetractionWorkStaysInTheTouchedComponent) {
  SymbolsPtr sym = MakeSymbols();
  auto plan = MustCompile(
      "forall x . (A0(x) -> A1(x)); "
      "forall x, y (R(x,y) -> (A1(x) -> A1(y)));",
      sym, Pinned(PlanBackend::kDatalogRewrite));
  Ucq q = MustUcq("q(x) :- A1(x)", sym);
  auto compiled = plan->CompileQuery(q);
  ASSERT_TRUE(compiled.ok());
  Session session(plan);
  ASSERT_TRUE(session.RegisterQuery("q", q).ok());
  uint32_t R = static_cast<uint32_t>(sym->FindRel("R"));
  uint32_t A0 = static_cast<uint32_t>(sym->FindRel("A0"));
  // A 300-element chain and, disconnected from it, a 3-element chain.
  auto chain = [&](const std::string& prefix, int n) {
    std::vector<ElemId> es;
    for (int i = 0; i < n; ++i) {
      es.push_back(session.AddConstant(prefix + std::to_string(i)));
    }
    session.Assert(Fact{A0, {es[0]}});
    for (int i = 0; i + 1 < n; ++i) session.Assert(Fact{R, {es[i], es[i + 1]}});
    return es;
  };
  std::vector<ElemId> big = chain("b", 300);
  std::vector<ElemId> small = chain("s", 3);
  // A second, still-derivable support for the small chain's end.
  session.Assert(Fact{A0, {small[2]}});
  ASSERT_TRUE(session.Answers("q").ok());
  const size_t view_facts =
      DatalogEngine((*compiled)->program).Evaluate(session.db()).NumFacts();
  EXPECT_GT(view_facts, 3 * big.size());
  const DatalogStats* stats = session.datalog_stats("q");
  ASSERT_NE(stats, nullptr);

  for (const Fact& f : {Fact{R, {small[1], small[2]}}, Fact{A0, {small[2]}}}) {
    const uint64_t attempts = stats->rule_attempts;
    ASSERT_TRUE(*session.Retract(f));
    auto got = session.Answers("q");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, Scratch(**compiled, session.db()));
    EXPECT_LT(stats->rule_attempts - attempts, view_facts / 10);
  }
  // The first retraction's overdeleted A1(s2) came back through A0(s2).
  EXPECT_EQ(session.stats().dred_rounds, 2u);
  EXPECT_GT(session.stats().rederived_facts, 0u);
  EXPECT_FALSE(session.Answers("q")->count({small[2]}));
}

// The delta log exists only for Datalog views: FO sessions never append to
// it, and a Datalog session trims it to the unfolded suffix on every sync.
TEST(ServeSessionTest, DeltaLogStaysBounded) {
  SymbolsPtr sym = MakeSymbols();
  const std::string text =
      "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x));";
  PlanOptions fo_opts;
  fo_opts.assume_ptime = Certainty::kYes;
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  Session fo(MustCompile(text, sym, fo_opts));
  Session datalog(MustCompile(text, sym, Pinned(PlanBackend::kDatalogRewrite)));
  for (Session* s : {&fo, &datalog}) ASSERT_TRUE(s->RegisterQuery("q", q).ok());
  uint32_t A = static_cast<uint32_t>(sym->FindRel("A"));
  for (int round = 0; round < 5; ++round) {
    for (Session* s : {&fo, &datalog}) {
      for (int i = 0; i < 20; ++i) {
        ElemId e = s->AddConstant("e" + std::to_string(i));
        ASSERT_TRUE(((i + round) % 2 ? s->Assert(Fact{A, {e}})
                                     : s->Retract(Fact{A, {e}}))
                        .ok());
      }
    }
    // Before the Datalog view's first sync nothing reads the log.
    EXPECT_EQ(datalog.log_size(), round == 0 ? 0u : 20u);
    auto fo_answers = fo.Answers("q");
    auto dl_answers = datalog.Answers("q");
    ASSERT_TRUE(fo_answers.ok() && dl_answers.ok());
    EXPECT_EQ(*fo_answers, *dl_answers);
    EXPECT_EQ(fo.log_size(), 0u);
    EXPECT_EQ(datalog.log_size(), 0u);
  }
  EXPECT_GT(fo.stats().fo_evaluations, 0u);  // the planner chose FO
  EXPECT_GT(fo.stats().retracts, 0u);
}

TEST(ServeSessionTest, NoopDeltasAreCountedAndFree) {
  SymbolsPtr sym = MakeSymbols();
  auto plan = MustCompile("forall x . (A(x) -> B(x));", sym,
                          Pinned(PlanBackend::kDatalogRewrite));
  Session session(plan);
  ASSERT_TRUE(session.RegisterQuery("q", MustUcq("q(x) :- B(x)", sym)).ok());
  uint32_t A = static_cast<uint32_t>(sym->FindRel("A"));
  ElemId a = session.AddConstant("a");
  ElemId b = session.AddConstant("b");
  EXPECT_TRUE(*session.Assert(Fact{A, {a}}));
  uint64_t rev = session.revision();
  EXPECT_FALSE(*session.Assert(Fact{A, {a}}));   // already present
  EXPECT_FALSE(*session.Retract(Fact{A, {b}}));  // absent
  EXPECT_EQ(session.revision(), rev);  // no-ops leave the base untouched
  EXPECT_EQ(session.stats().noop_deltas, 2u);
  // Malformed facts are rejected, not aborted on.
  EXPECT_FALSE(session.Assert(Fact{A, {a, a}}).ok());
  EXPECT_FALSE(session.Assert(Fact{9999, {a}}).ok());
}

TEST(ServeSessionTest, TableauBackendMemoizesPerRevision) {
  SymbolsPtr sym = MakeSymbols();
  // A disjunctive ontology (properly coNP-flavored): A(x) -> B(x) | C(x),
  // so q(x) :- B(x) is not certain from A(a) alone, but B(a) in the base
  // makes it so.
  auto plan = MustCompile("forall x . (A(x) -> B(x) | C(x));", sym,
                          Pinned(PlanBackend::kTableau));
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  Session session(plan);
  ASSERT_TRUE(session.RegisterQuery("q", q).ok());
  uint32_t A = static_cast<uint32_t>(sym->FindRel("A"));
  uint32_t B = static_cast<uint32_t>(sym->FindRel("B"));
  ElemId a = session.AddConstant("a");
  session.Assert(Fact{A, {a}});
  auto first = session.Answers("q");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->empty());  // the C(a) model refutes certainty
  EXPECT_EQ(session.stats().tableau_recomputes, 1u);
  // Same revision: served from the memo, no new tableau work.
  auto again = session.Answers("q");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(session.stats().tableau_recomputes, 1u);
  EXPECT_EQ(session.stats().answer_cache_hits, 1u);
  // A delta invalidates the revision and recomputes.
  session.Assert(Fact{B, {a}});
  auto after = session.Answers("q");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 1u);
  EXPECT_EQ(session.stats().tableau_recomputes, 2u);
}

TEST(ServeSessionTest, QueryMemoSharedAcrossSessions) {
  SymbolsPtr sym = MakeSymbols();
  auto plan = MustCompile("forall x . (A(x) -> B(x));", sym,
                          Pinned(PlanBackend::kDatalogRewrite));
  Ucq q = MustUcq("q(x) :- B(x)", sym);
  Session s1(plan);
  Session s2(plan);
  ASSERT_TRUE(s1.RegisterQuery("q", q).ok());
  ASSERT_TRUE(s2.RegisterQuery("q", q).ok());
  EXPECT_EQ(plan->query_compilations(), 1u);
  EXPECT_EQ(plan->query_cache_hits(), 1u);
  EXPECT_EQ(s1.QueryNames(), std::vector<std::string>{"q"});
}

}  // namespace
}  // namespace gfomq::serve
