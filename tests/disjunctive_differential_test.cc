// Differential suite for rewritings of disjunctive ontologies. Seeded rule
// sets of the fuzz generator (tests/fuzz_rules.h) draw at least one
// disjunction each; those that an outdegree-1 meta decision classifies as
// PTIME are served through the planner. Every unary query U_k that the
// planner serves by FO or datalog must answer exactly what a session pinned
// to the tableau answers, on random bases over sig(O) ∪ sig(q), the
// inconsistent ones included.
//
// A rewriting is licensed only by its sweep's probes, so this suite also
// guards the consistency-model shortcut of the sweep: a probe it decides
// that used to stay undecided turns a tableau fallback into a rewriting.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz_rules.h"
#include "logic/parser.h"
#include "query/cq.h"
#include "serve/plan.h"
#include "serve/session.h"

namespace gfomq::serve {
namespace {

// The tier-1 slice of the sweep; raise it for a wider one.
constexpr uint64_t kSeeds = 20;
constexpr int kBasesPerQuery = 6;
constexpr int kConstants = 4;
constexpr int kFactsPerBase = 6;

PlanOptions Options(std::optional<PlanBackend> pinned) {
  PlanOptions o;
  o.engine.bouquet.max_outdegree = 1;
  o.engine.certain.tableau.max_fresh_nulls = 20;
  o.force_backend = pinned;
  return o;
}

bool HasTwoHeadedDisjunction(const RuleSet& rules) {
  for (const GuardedRule& r : rules.rules) {
    if (r.head.size() == 2 && r.head[0].lits.size() == 1 &&
        r.head[1].lits.size() == 1 &&
        r.head[0].lits[0].rel != r.head[1].lits[0].rel) {
      return true;
    }
  }
  return false;
}

TEST(DisjunctiveDifferential, RewritingsAgreeWithTableauOnFuzzOntologies) {
  uint64_t ptime = 0;
  uint64_t disjunctive_ptime = 0;
  uint64_t served = 0;
  uint64_t inconsistent = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    SymbolsPtr sym = MakeSymbols();
    RuleSet rules = RandomRules(sym, rng);
    const std::string text = RulesToText(rules);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + text);
    auto onto = ParseOntology(text, sym);
    ASSERT_TRUE(onto.ok()) << onto.status().ToString();
    auto plan = OmqPlan::Compile(*onto, Options(std::nullopt));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    if ((*plan)->verdict().ptime != Certainty::kYes) continue;
    ++ptime;
    if (HasTwoHeadedDisjunction(rules)) ++disjunctive_ptime;
    auto reference_plan =
        OmqPlan::Compile(*onto, Options(PlanBackend::kTableau));
    ASSERT_TRUE(reference_plan.ok()) << reference_plan.status().ToString();

    for (uint32_t k = 0; k < kLevels; ++k) {
      const std::string query_text = "q(x) :- U" + std::to_string(k) + "(x)";
      auto q = ParseUcq(query_text, sym);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      auto compiled = (*plan)->CompileQuery(*q);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      if ((*compiled)->backend != PlanBackend::kFoRewrite &&
          (*compiled)->backend != PlanBackend::kDatalogRewrite) {
        continue;
      }
      ++served;
      // Bases over sig(O) ∪ sig(q) whose every constant occurs in a fact.
      std::set<uint32_t> rel_set;
      for (uint32_t r : onto->Signature()) rel_set.insert(r);
      rel_set.insert(LevelRel(sym, k));
      const std::vector<uint32_t> rels(rel_set.begin(), rel_set.end());
      Rng base_rng(seed * 1000 + k);
      for (int b = 0; b < kBasesPerQuery; ++b) {
        Session session(*plan);
        Session reference(*reference_plan);
        ASSERT_TRUE(session.RegisterQuery("q", *q).ok());
        ASSERT_TRUE(reference.RegisterQuery("q", *q).ok());
        for (int f = 0; f < kFactsPerBase; ++f) {
          uint32_t rel = rels[base_rng.Below(rels.size())];
          std::vector<std::string> names;
          for (int i = 0; i < sym->RelArity(rel); ++i) {
            names.push_back("c" + std::to_string(base_rng.Below(kConstants)));
          }
          for (Session* s : {&session, &reference}) {
            std::vector<ElemId> args;
            for (const std::string& n : names) {
              args.push_back(s->AddConstant(n));
            }
            ASSERT_TRUE(s->Assert({rel, args}).ok());
          }
        }
        if ((*reference_plan)->solver().IsConsistent(reference.db()) ==
            Certainty::kNo) {
          ++inconsistent;
        }
        auto got = session.Answers("q");
        auto want = reference.Answers("q");
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        EXPECT_EQ(*got, *want) << query_text << " served by "
                               << BackendName((*compiled)->backend)
                               << " on " << reference.db().ToString();
      }
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first diverging seed " << seed;
    }
  }
  EXPECT_GT(ptime, 0u);
  EXPECT_GT(disjunctive_ptime, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_GT(inconsistent, 0u);
}

}  // namespace
}  // namespace gfomq::serve
