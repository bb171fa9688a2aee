// The seeded rule-set generator of the cross-engine fuzz sweep, shared
// with the rewriting differential suites. See tableau_fuzz_test.cc for why
// its rule sets are index-increasing (every chase terminates quickly).

#ifndef GFOMQ_TESTS_FUZZ_RULES_H_
#define GFOMQ_TESTS_FUZZ_RULES_H_

#include <string>

#include "common/rng.h"
#include "logic/rules.h"

namespace gfomq {

inline constexpr uint32_t kLevels = 6;  // unary relations U0..U5

inline uint32_t LevelRel(const SymbolsPtr& sym, uint32_t level) {
  return sym->Rel("U" + std::to_string(level), 1);
}

// A random index-increasing rule set (see tableau_fuzz_test.cc): inclusions,
// disjunctions and disjointness over the unary levels, at most one
// existential rule and one binary propagation rule through R.
inline RuleSet RandomRules(SymbolsPtr sym, Rng& rng) {
  RuleSet rules;
  rules.symbols = sym;
  uint32_t rel_r = sym->Rel("R", 2);

  auto unary_rule = [&](uint32_t guard_level) {
    GuardedRule rule;
    rule.num_vars = 1;
    rule.guard = Lit::Atom(LevelRel(sym, guard_level), {0});
    return rule;
  };
  // Strictly-higher target level than `above`.
  auto higher = [&](uint32_t above) {
    return above + 1 + static_cast<uint32_t>(rng.Below(kLevels - 1 - above));
  };

  // 1-3 inclusions U_a(x) -> U_b(x), b > a.
  uint32_t inclusions = 1 + static_cast<uint32_t>(rng.Below(3));
  for (uint32_t i = 0; i < inclusions; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Below(kLevels - 1));
    GuardedRule rule = unary_rule(a);
    HeadAlt alt;
    alt.lits.push_back(Lit::Atom(LevelRel(sym, higher(a)), {0}));
    rule.head.push_back(alt);
    rules.rules.push_back(std::move(rule));
  }

  // 1-2 disjunctions U_a(x) -> U_b(x) | U_c(x), b, c > a.
  uint32_t disjunctions = 1 + static_cast<uint32_t>(rng.Below(2));
  for (uint32_t i = 0; i < disjunctions; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Below(kLevels - 1));
    GuardedRule rule = unary_rule(a);
    for (int alt_i = 0; alt_i < 2; ++alt_i) {
      HeadAlt alt;
      alt.lits.push_back(Lit::Atom(LevelRel(sym, higher(a)), {0}));
      rule.head.push_back(alt);
    }
    rules.rules.push_back(std::move(rule));
  }

  // 0-2 disjointness constraints U_a(x) & U_b(x) -> false, a != b. These
  // are what makes a run inconsistent, so the fuzz exercises both verdicts.
  uint32_t disjoints = static_cast<uint32_t>(rng.Below(3));
  for (uint32_t i = 0; i < disjoints; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Below(kLevels));
    uint32_t b = static_cast<uint32_t>(rng.Below(kLevels));
    if (a == b) b = (b + 1) % kLevels;
    GuardedRule rule = unary_rule(a);
    rule.body.push_back(Lit::Atom(LevelRel(sym, b), {0}));
    HeadAlt ff;
    ff.is_false = true;
    rule.head.push_back(ff);
    rules.rules.push_back(std::move(rule));
  }

  // At most one existential: U_a(x) -> exists y (R(x,y) & U_b(y)), b > a.
  if (rng.Chance(0.5)) {
    uint32_t a = static_cast<uint32_t>(rng.Below(kLevels - 1));
    GuardedRule rule = unary_rule(a);
    rule.num_vars = 1;
    HeadAlt alt;
    ExistsUnit eu;
    eu.qvars = {1};
    eu.guard = Lit::Atom(rel_r, {0, 1});
    eu.lits.push_back(Lit::Atom(LevelRel(sym, higher(a)), {1}));
    alt.exists.push_back(std::move(eu));
    rule.head.push_back(std::move(alt));
    rules.rules.push_back(std::move(rule));
  }

  // At most one binary propagation: R(x,y) & U_a(x) -> U_b(y), b > a.
  if (rng.Chance(0.5)) {
    uint32_t a = static_cast<uint32_t>(rng.Below(kLevels - 1));
    GuardedRule rule;
    rule.num_vars = 2;
    rule.guard = Lit::Atom(rel_r, {0, 1});
    rule.body.push_back(Lit::Atom(LevelRel(sym, a), {0}));
    HeadAlt alt;
    alt.lits.push_back(Lit::Atom(LevelRel(sym, higher(a)), {1}));
    rule.head.push_back(alt);
    rules.rules.push_back(std::move(rule));
  }

  return rules;
}

}  // namespace gfomq

#endif  // GFOMQ_TESTS_FUZZ_RULES_H_
