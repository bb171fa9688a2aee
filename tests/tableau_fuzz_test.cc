// Cross-engine differential fuzz harness: seeded random (ontology,
// instance, query) triples driven through all three tableau engines — COW
// serial (the reference), COW or-parallel, and the trail-based destructive
// engine with nogood learning — asserting bit-identical verdicts for
// consistency, model finding, and solver-level certain answers.
//
// The generator only emits *index-increasing* rule sets over unary levels
// U0..U5: every derived unary label has a strictly higher level than the
// labels it was derived from, existential witnesses carry a higher level
// than their parent's trigger, and at most one exists rule and one binary
// propagation rule are drawn. That makes every chase terminate after a
// handful of steps, so with the generous budgets below no engine ever hits
// a limit (asserted via stats().budget_hit) — which is what licenses
// demanding *bit-identical* verdicts: near a shared budget boundary the
// engines may legitimately diverge to kUnknown at different points, and
// nogood pruning would systematically shift where the trail engine lands.
//
// `TableauFuzzTest` is the full fixed-seed sweep (release/asan CI, label
// `fuzz`); `TableauFuzzTsan` repeats a reduced seed range so the
// or-parallel engine's synchronization gets a ThreadSanitizer pass without
// dominating that preset's runtime.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz_rules.h"
#include "query/cq.h"
#include "reasoner/certain.h"
#include "reasoner/tableau.h"

namespace gfomq {
namespace {

// A tiny instance seeded at the low levels so the rules actually fire:
// 2-3 elements, unary facts over U0..U2, a sparse R.
Instance RandomInstance(SymbolsPtr sym, Rng& rng) {
  Instance d(sym);
  std::vector<ElemId> es;
  uint32_t n = 2 + static_cast<uint32_t>(rng.Below(2));
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.Chance(0.3)) {
      es.push_back(d.AddNull());
    } else {
      es.push_back(d.AddConstant("e" + std::to_string(i)));
    }
  }
  for (uint32_t level = 0; level < 3; ++level) {
    uint32_t rel = LevelRel(sym, level);
    for (ElemId e : es) {
      if (rng.Chance(0.4)) d.AddFact(rel, {e});
    }
  }
  uint32_t rel_r = sym->Rel("R", 2);
  for (ElemId x : es) {
    for (ElemId y : es) {
      if (rng.Chance(0.3)) d.AddFact(rel_r, {x, y});
    }
  }
  return d;
}

// Decisively within-budget for every generated chase (see header comment).
TableauBudget FuzzBudget() {
  TableauBudget budget;
  budget.max_steps = 5000000;
  budget.max_branches = 1000000;
  return budget;
}

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

// One differential round: generate (rules, instance), run the three
// engines through consistency and model finding, then the two solver
// configurations through certain answers.
void RunSeed(uint64_t seed) {
  Rng rng(seed);
  SymbolsPtr sym = MakeSymbols();
  RuleSet rules = RandomRules(sym, rng);
  Instance d = RandomInstance(sym, rng);

  TableauBudget serial = FuzzBudget();
  TableauBudget parallel = FuzzBudget();
  parallel.tableau_threads = 3;
  parallel.spawn_cutoff_depth = 2;  // actually exercise task spawning
  TableauBudget trail_budget = FuzzBudget();
  trail_budget.engine = TableauEngine::kTrail;

  Tableau cow(rules, serial);
  Tableau par(rules, parallel);
  Tableau trail(rules, trail_budget);

  // Consistency.
  Certainty want = cow.IsConsistent(d);
  ASSERT_FALSE(cow.stats().budget_hit) << "seed " << seed;
  Certainty got_par = par.IsConsistent(d);
  Certainty got_trail = trail.IsConsistent(d);
  ASSERT_FALSE(par.stats().budget_hit) << "seed " << seed;
  ASSERT_FALSE(trail.stats().budget_hit) << "seed " << seed;
  EXPECT_EQ(got_par, want) << "parallel consistency diverged, seed " << seed
                           << " want " << Show(want);
  EXPECT_EQ(got_trail, want) << "trail consistency diverged, seed " << seed
                             << " want " << Show(want);
  EXPECT_EQ(trail.stats().cow_copies, 0u) << "seed " << seed;

  // Model finding: a model where the top level is never reached. The
  // reject is antimonotone (a U5 fact, once present, survives extension
  // and merging), which is what FindModelWhere's pruning contract needs;
  // it is also thread-safe, which the parallel engine needs.
  uint32_t top = LevelRel(sym, kLevels - 1);
  auto lacks_top = [top](const Instance& m) {
    for (const Fact& f : m.facts()) {
      if (f.rel == top) return false;
    }
    return true;
  };
  Certainty find_want = cow.FindModelWhere(d, lacks_top, true);
  Certainty find_par = par.FindModelWhere(d, lacks_top, true);
  Certainty find_trail = trail.FindModelWhere(d, lacks_top, true);
  ASSERT_FALSE(cow.stats().budget_hit) << "seed " << seed;
  ASSERT_FALSE(par.stats().budget_hit) << "seed " << seed;
  ASSERT_FALSE(trail.stats().budget_hit) << "seed " << seed;
  EXPECT_EQ(find_par, find_want)
      << "parallel FindModelWhere diverged, seed " << seed;
  EXPECT_EQ(find_trail, find_want)
      << "trail FindModelWhere diverged, seed " << seed;

  // Solver-level certain answers: default engine vs trail engine, same
  // budgets and ground fallback. Query: is an element certainly labelled
  // with the generator's top derivable levels?
  CertainOptions base;
  base.tableau = FuzzBudget();
  CertainOptions via_trail = base;
  via_trail.tableau.engine = TableauEngine::kTrail;
  CertainAnswerSolver ref(rules, base);
  CertainAnswerSolver dut(rules, via_trail);

  EXPECT_EQ(dut.IsConsistent(d), ref.IsConsistent(d))
      << "solver consistency diverged, seed " << seed;
  for (uint32_t level : {kLevels - 1, kLevels - 2}) {
    Cq q;
    q.symbols = sym;
    q.num_vars = 1;
    q.answer_vars = {0};
    q.atoms.push_back({LevelRel(sym, level), {0}});
    for (ElemId e = 0; e < d.NumElements() && e < 2; ++e) {
      Certainty cw = ref.IsCertain(d, q, {e});
      EXPECT_EQ(dut.IsCertain(d, q, {e}), cw)
          << "certain-answer verdict diverged, seed " << seed << " level "
          << level << " elem " << e << " want " << Show(cw);
    }
  }
}

// The full sweep: 500 seeds, every engine, bit-identical verdicts.
TEST(TableauFuzzTest, CrossEngineVerdictsIdentical) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    RunSeed(20260808000ull + seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first diverging seed for a small repro";
    }
  }
}

// Reduced sweep for the ThreadSanitizer preset: same harness, enough
// seeds to exercise the or-parallel engine's synchronization. The trail
// engine runs serially here too — it is single-threaded by design (one
// mutable branch per trail; see TableauEngine::kTrail).
TEST(TableauFuzzTsan, CrossEngineVerdictsIdenticalReduced) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RunSeed(20260808000ull + seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first diverging seed for a small repro";
    }
  }
}

}  // namespace
}  // namespace gfomq
