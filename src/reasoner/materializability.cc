#include "reasoner/materializability.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace gfomq {

std::string DisjunctionViolation::ToString() const {
  std::ostringstream out;
  out << "on instance { " << instance.ToString() << "}: certain disjunction ";
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    if (i) out << " OR ";
    out << disjuncts[i].first.ToString() << " @ (";
    for (size_t j = 0; j < disjuncts[i].second.size(); ++j) {
      if (j) out << ",";
      out << instance.ElemName(disjuncts[i].second[j]);
    }
    out << ")";
  }
  out << ", no disjunct certain";
  return out.str();
}

namespace {

// Builds the atomic CQ q(x~) :- R(x~) matching `tuple`'s equality pattern.
Cq AtomicQuery(SymbolsPtr sym, uint32_t rel, const std::vector<ElemId>& tuple,
               bool boolean) {
  Cq q;
  q.symbols = sym;
  std::vector<uint32_t> vars;
  if (boolean) {
    for (size_t i = 0; i < tuple.size(); ++i) {
      vars.push_back(q.num_vars++);
    }
  } else {
    std::map<ElemId, uint32_t> var_of;
    for (ElemId e : tuple) {
      auto it = var_of.find(e);
      if (it == var_of.end()) it = var_of.emplace(e, q.num_vars++).first;
      vars.push_back(it->second);
    }
    q.answer_vars = vars;
  }
  q.atoms.push_back({rel, vars});
  return q;
}

}  // namespace

namespace {

std::optional<DisjunctionViolation> FindDisjunctionViolationImpl(
    CertainAnswerSolver& solver, const Instance& instance,
    const std::vector<uint32_t>& signature, bool* conclusive,
    ProbeOptions options, uint64_t* model_settled) {
  *conclusive = true;
  std::optional<Instance> model;
  Certainty consistent = solver.IsConsistent(instance, &model);
  if (consistent != Certainty::kYes) {
    // Inconsistent (everything certain, no violation possible) or unknown.
    if (consistent == Certainty::kUnknown) *conclusive = false;
    return std::nullopt;
  }
  SymbolsPtr sym = instance.symbols();

  // Candidate pool: atomic queries that are not yet facts and individually
  // non-certain. A candidate the model falsifies is non-certain without a
  // probe; `settled` marks those.
  std::vector<std::pair<Ucq, std::vector<ElemId>>> candidates;
  std::vector<bool> settled;
  bool any_unknown = false;
  auto try_candidate = [&](uint32_t rel, const std::vector<ElemId>& tuple,
                           bool boolean) {
    if (!boolean && instance.HasFact(rel, tuple)) return;
    Cq q = AtomicQuery(sym, rel, tuple, boolean);
    std::vector<ElemId> answer = boolean ? std::vector<ElemId>{} : tuple;
    if (model && !q.HasAnswer(*model, answer)) {
      ++*model_settled;
      candidates.emplace_back(Ucq::Single(std::move(q)), answer);
      settled.push_back(true);
      return;
    }
    Certainty c = solver.IsCertain(instance, q, answer);
    if (c == Certainty::kNo) {
      candidates.emplace_back(Ucq::Single(std::move(q)), answer);
      settled.push_back(false);
    } else if (c == Certainty::kUnknown) {
      any_unknown = true;
    }
  };

  for (uint32_t rel : signature) {
    int arity = sym->RelArity(rel);
    if (arity == 1) {
      for (ElemId e = 0; e < instance.NumElements(); ++e) {
        try_candidate(rel, {e}, false);
      }
    } else if (arity == 2) {
      if (options.binary_pair_candidates) {
        for (ElemId a = 0; a < instance.NumElements(); ++a) {
          for (ElemId b = 0; b < instance.NumElements(); ++b) {
            try_candidate(rel, {a, b}, false);
          }
        }
      }
      if (options.boolean_binary_candidates) {
        try_candidate(rel, {0, 0}, true);
      }
    }
  }

  if (candidates.size() < 2) {
    *conclusive = !any_unknown;
    return std::nullopt;
  }
  // If the full disjunction of the non-certain candidates is not certain,
  // no subset can witness a violation. The model answers every candidate
  // that it did not settle, so when it settled all of them it is itself
  // the countermodel to the disjunction.
  if (std::find(settled.begin(), settled.end(), false) == settled.end()) {
    ++*model_settled;
    *conclusive = !any_unknown;
    return std::nullopt;
  }
  Certainty full = solver.HasDisjunctionViolation(instance, candidates);
  if (full == Certainty::kUnknown) {
    // HasDisjunctionViolation probes each disjunct again, and the probe of
    // a settled candidate may stay undecided where the model decided it.
    // The pool without the model would not hold such a candidate: drop it,
    // so the verdict and the witness stay those of a scan without the
    // shortcut, which can only have fewer undecided probes.
    size_t kept = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const auto& [q, t] = candidates[i];
      if (settled[i] &&
          solver.IsCertain(instance, q, t) == Certainty::kUnknown) {
        any_unknown = true;
        continue;
      }
      candidates[kept++] = std::move(candidates[i]);
    }
    if (kept < candidates.size()) {
      candidates.resize(kept);
      if (candidates.size() < 2) {
        *conclusive = false;
        return std::nullopt;
      }
      full = solver.HasDisjunctionViolation(instance, candidates);
    }
  }
  if (full == Certainty::kNo) {
    *conclusive = !any_unknown;
    return std::nullopt;
  }
  if (full == Certainty::kUnknown) {
    *conclusive = false;
    return std::nullopt;
  }
  // Violation exists: minimize greedily (keep the disjunction certain).
  std::vector<std::pair<Ucq, std::vector<ElemId>>> minimal = candidates;
  for (size_t i = 0; i < minimal.size() && minimal.size() > 2;) {
    std::vector<std::pair<Ucq, std::vector<ElemId>>> without = minimal;
    without.erase(without.begin() + static_cast<int64_t>(i));
    if (solver.HasDisjunctionViolation(instance, without) == Certainty::kYes) {
      minimal = std::move(without);
    } else {
      ++i;
    }
  }
  DisjunctionViolation out{instance, std::move(minimal)};
  return out;
}

}  // namespace

std::optional<DisjunctionViolation> FindDisjunctionViolation(
    CertainAnswerSolver& solver, const Instance& instance,
    const std::vector<uint32_t>& signature, bool* conclusive,
    ProbeOptions options, uint64_t* model_settled) {
  uint64_t ignored = 0;
  if (model_settled == nullptr) model_settled = &ignored;
  // Whole-probe memo: one cache entry summarizes the probe of this
  // instance (kNo = no violation & conclusive, kUnknown = no violation &
  // inconclusive, kYes = violation exists). A warm bouquet scan thus pays
  // one canonical key + one lookup per bouquet instead of dozens of
  // entailment probes. On a kYes hit the witness is recomputed — cheap,
  // since it happens at most once per decision (the scan stops there) and
  // the inner probes are themselves memoized.
  std::string key;
  const bool use_cache = solver.options().consistency_cache;
  if (use_cache) {
    std::unordered_map<ElemId, uint32_t> rename;
    key = solver.ProbeKey(instance, &rename);
    key += "|V";
    for (uint32_t rel : signature) {
      key += 'r';
      key += std::to_string(rel);
    }
    key += options.boolean_binary_candidates ? 'B' : 'b';
    key += options.binary_pair_candidates ? 'P' : 'p';
    if (std::optional<Certainty> hit = solver.cache().Lookup(key)) {
      if (*hit == Certainty::kNo) {
        *conclusive = true;
        return std::nullopt;
      }
      if (*hit == Certainty::kUnknown) {
        *conclusive = false;
        return std::nullopt;
      }
      return FindDisjunctionViolationImpl(solver, instance, signature,
                                          conclusive, options, model_settled);
    }
  }
  std::optional<DisjunctionViolation> out = FindDisjunctionViolationImpl(
      solver, instance, signature, conclusive, options, model_settled);
  if (use_cache) {
    Certainty summary = out.has_value()
                            ? Certainty::kYes
                            : (*conclusive ? Certainty::kNo
                                           : Certainty::kUnknown);
    solver.cache().Insert(key, summary);
  }
  return out;
}

}  // namespace gfomq
