#include "datalog/engine.h"

#include <cassert>
#include <chrono>

namespace gfomq {

namespace {

/// True if the two instances describe the same database (shared symbol
/// table, same element table size, identical fact set). Element names are
/// irrelevant to evaluation, which is defined over element ids.
[[maybe_unused]] bool SameDatabase(const Instance& a, const Instance& b) {
  return a.symbols() == b.symbols() && a.NumElements() == b.NumElements() &&
         a.facts() == b.facts();
}

/// Pins `atom`'s variables to `args` in `fixed`; false when a repeated
/// variable would need two different elements.
bool Bind(const DatalogAtom& atom, const std::vector<ElemId>& args,
          std::vector<int64_t>* fixed) {
  for (size_t i = 0; i < args.size(); ++i) {
    int64_t& slot = (*fixed)[atom.vars[i]];
    const int64_t e = static_cast<int64_t>(args[i]);
    if (slot >= 0 && slot != e) return false;
    slot = e;
  }
  return true;
}

/// The head fact that the body match `assign` derives, or nullopt when the
/// match violates one of the rule's ≠ constraints.
std::optional<Fact> Fire(const DatalogRule& rule,
                         const std::vector<int64_t>& assign) {
  for (const auto& [x, y] : rule.neq) {
    if (assign[x] == assign[y]) return std::nullopt;
  }
  Fact f{rule.head.rel, {}};
  f.args.reserve(rule.head.vars.size());
  for (uint32_t v : rule.head.vars) {
    f.args.push_back(static_cast<ElemId>(assign[v]));
  }
  return f;
}

/// The rule's body as a matcher pattern without the atom at `skip` (pass
/// body.size() to keep every atom).
std::vector<PatternAtom> Pattern(const DatalogRule& rule, size_t skip) {
  std::vector<PatternAtom> atoms;
  atoms.reserve(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (i != skip) atoms.push_back({rule.body[i].rel, rule.body[i].vars});
  }
  return atoms;
}

}  // namespace

DatalogEngine::DatalogEngine(const DatalogProgram& program,
                             DatalogEvalMode mode)
    : program_(program), mode_(mode) {
  for (size_t r = 0; r < program_.rules.size(); ++r) {
    const DatalogRule& rule = program_.rules[r];
    for (size_t pivot = 0; pivot < rule.body.size(); ++pivot) {
      dispatch_[rule.body[pivot].rel].push_back(
          PivotPlan{r, pivot, Pattern(rule, pivot)});
    }
    rules_by_head_[rule.head.rel].push_back(r);
    bodies_.push_back(Pattern(rule, rule.body.size()));
  }
}

Instance DatalogEngine::Evaluate(const Instance& input) {
  Instance db = mode_ == DatalogEvalMode::kIndexed ? EvaluateIndexed(input)
                                                   : EvaluateNaive(input);
  ++evaluations_;
  cached_input_ = input;
  cached_output_ = db;
  return db;
}

Instance DatalogEngine::EvaluateIndexed(const Instance& input) {
  stats_ = DatalogStats{};
  stats_.per_rule_firings.assign(program_.rules.size(), 0);
  Instance db = input;
  // Semi-naive: in each round, require at least one body atom to match a
  // fact derived in the previous round. The delta is kept grouped by
  // relation so a round only visits rules reachable through dispatch_.
  std::map<uint32_t, std::vector<Fact>> delta;
  for (const Fact& f : input.facts()) delta[f.rel].push_back(f);
  RunSemiNaive(&db, std::move(delta));
  return db;
}

void DatalogEngine::SaturateDelta(Instance* db,
                                  const std::vector<Fact>& added) {
  if (stats_.per_rule_firings.size() != program_.rules.size()) {
    stats_.per_rule_firings.assign(program_.rules.size(), 0);
  }
  std::map<uint32_t, std::vector<Fact>> delta;
  for (const Fact& f : added) delta[f.rel].push_back(f);
  RunSemiNaive(db, std::move(delta));
}

template <typename OnHead>
void DatalogEngine::FireDelta(
    const std::map<uint32_t, std::vector<Fact>>& delta, const Instance& db,
    OnHead on_head) {
  for (const auto& [rel, dfacts] : delta) {
    auto dit = dispatch_.find(rel);
    if (dit == dispatch_.end()) continue;
    for (const PivotPlan& plan : dit->second) {
      const DatalogRule& rule = program_.rules[plan.rule];
      for (const Fact& df : dfacts) {
        ++stats_.rule_attempts;
        std::vector<int64_t> fixed(rule.num_vars, -1);
        if (!Bind(rule.body[plan.pivot], df.args, &fixed)) continue;
        ForEachMatch(
            plan.rest, rule.num_vars, db, fixed,
            [&](const std::vector<int64_t>& assign) {
              if (std::optional<Fact> h = Fire(rule, assign)) {
                on_head(plan.rule, std::move(*h));
              }
              return false;
            },
            &stats_.match);
      }
    }
  }
}

void DatalogEngine::RunSemiNaive(Instance* dbp,
                                 std::map<uint32_t, std::vector<Fact>> delta) {
  auto t0 = std::chrono::steady_clock::now();
  Instance& db = *dbp;
  while (!delta.empty()) {
    ++stats_.iterations;
    std::vector<bool> rule_fired(program_.rules.size(), false);
    for (const auto& [rel, dfacts] : delta) {
      stats_.delta_facts += dfacts.size();
      auto dit = dispatch_.find(rel);
      if (dit == dispatch_.end()) continue;
      for (const PivotPlan& plan : dit->second) rule_fired[plan.rule] = true;
    }
    // Match the pivot atom against delta facts only; the rest of the body
    // runs through the indexed matcher over the full instance.
    std::set<Fact> next_delta;
    FireDelta(delta, db, [&](size_t ri, Fact f) {
      ++stats_.per_rule_firings[ri];
      if (!db.HasFact(f)) next_delta.insert(std::move(f));
    });
    for (bool fired : rule_fired) {
      fired ? ++stats_.rules_dispatched : ++stats_.rules_skipped;
    }
    delta.clear();
    for (const Fact& f : next_delta) {
      db.AddFact(f);
      ++stats_.derived_facts;
      delta[f.rel].push_back(f);
    }
  }
  stats_.wall_micros += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::set<Fact> DatalogEngine::OverdeleteClosure(
    const Instance& db, const std::vector<Fact>& deleted,
    const Instance& base) {
  // DRed phase 1 (overdeletion), semi-naive over the deletion delta: a
  // fact is possibly-invalidated if some one-step derivation of it uses a
  // possibly-invalidated fact. Bodies are matched against `db` with the
  // deleted facts still present — the standard over-approximation; the
  // rederivation step (Rederive) restores facts with surviving
  // alternative derivations.
  std::set<Fact> del;
  std::map<uint32_t, std::vector<Fact>> delta;
  for (const Fact& f : deleted) {
    if (!db.HasFact(f)) continue;
    if (del.insert(f).second) delta[f.rel].push_back(f);
  }
  while (!delta.empty()) {
    std::map<uint32_t, std::vector<Fact>> next;
    FireDelta(delta, db, [&](size_t, Fact h) {
      // External facts survive any retraction of *other* facts.
      if (db.HasFact(h) && !base.HasFact(h) && !del.count(h)) {
        next[h.rel].push_back(h);
        del.insert(std::move(h));
      }
    });
    delta = std::move(next);
  }
  return del;
}

std::vector<Fact> DatalogEngine::Rederive(const Instance& db,
                                          const std::set<Fact>& overdeleted) {
  std::vector<Fact> out;
  for (const Fact& f : overdeleted) {
    auto hit = rules_by_head_.find(f.rel);
    if (hit == rules_by_head_.end() || db.HasFact(f)) continue;
    for (size_t ri : hit->second) {
      const DatalogRule& rule = program_.rules[ri];
      ++stats_.rule_attempts;
      std::vector<int64_t> fixed(rule.num_vars, -1);
      if (!Bind(rule.head, f.args, &fixed)) continue;
      bool derived = ForEachMatch(
          bodies_[ri], rule.num_vars, db, fixed,
          [&](const std::vector<int64_t>& assign) {
            return Fire(rule, assign).has_value();
          },
          &stats_.match);
      if (derived) {
        out.push_back(f);
        break;
      }
    }
  }
  return out;
}

Instance DatalogEngine::EvaluateNaive(const Instance& input) {
  // The pre-index evaluation loop, kept verbatim as the differential
  // reference: every rule × every pivot × every delta fact per round, with
  // the scan-based matcher.
  auto t0 = std::chrono::steady_clock::now();
  stats_ = DatalogStats{};
  stats_.per_rule_firings.assign(program_.rules.size(), 0);
  Instance db = input;
  std::set<Fact> delta(input.facts().begin(), input.facts().end());
  while (!delta.empty()) {
    ++stats_.iterations;
    std::set<Fact> next_delta;
    for (size_t ri = 0; ri < program_.rules.size(); ++ri) {
      const DatalogRule& rule = program_.rules[ri];
      std::vector<PatternAtom> pattern;
      pattern.reserve(rule.body.size());
      for (const DatalogAtom& a : rule.body) pattern.push_back({a.rel, a.vars});
      for (size_t pivot = 0; pivot < rule.body.size(); ++pivot) {
        for (const Fact& df : delta) {
          if (df.rel != rule.body[pivot].rel) continue;
          ++stats_.rule_attempts;
          std::vector<int64_t> fixed(rule.num_vars, -1);
          if (!Bind(rule.body[pivot], df.args, &fixed)) continue;
          std::vector<PatternAtom> rest;
          for (size_t i = 0; i < pattern.size(); ++i) {
            if (i != pivot) rest.push_back(pattern[i]);
          }
          ForEachMatchNaive(rest, rule.num_vars, db, fixed,
                            [&](const std::vector<int64_t>& assign) {
                              std::optional<Fact> f = Fire(rule, assign);
                              if (!f) return false;
                              ++stats_.per_rule_firings[ri];
                              if (!db.HasFact(*f)) {
                                next_delta.insert(std::move(*f));
                              }
                              return false;
                            });
        }
      }
    }
    stats_.delta_facts += delta.size();
    for (const Fact& f : next_delta) {
      db.AddFact(f);
      ++stats_.derived_facts;
    }
    delta = std::move(next_delta);
  }
  stats_.wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return db;
}

std::set<std::vector<ElemId>> DatalogEngine::GoalTuples(const Instance& input) {
  std::set<std::vector<ElemId>> out;
  if (program_.goal_rel < 0) return out;
  if (!cached_input_ || cached_input_->revision() != input.revision()) {
    Evaluate(input);
  } else {
    // Warm probe: an O(1) revision compare — a cache hit must not cost a
    // scan of the fact set. The deep compare stays on as the debug-build
    // oracle that the revision token never lies.
    assert(SameDatabase(*cached_input_, input));
    ++goal_cache_hits_;
  }
  const Instance& db = *cached_output_;
  for (const Fact* f :
       db.FactsOfPtr(static_cast<uint32_t>(program_.goal_rel))) {
    out.insert(f->args);
  }
  return out;
}

}  // namespace gfomq
