#ifndef GFOMQ_REASONER_MATERIALIZABILITY_H_
#define GFOMQ_REASONER_MATERIALIZABILITY_H_

#include <optional>
#include <string>
#include <vector>

#include "reasoner/certain.h"

namespace gfomq {

/// A witness that an ontology is not materializable on an instance: the
/// disjunction of the queries (at their tuples) is certain while no single
/// disjunct is (Theorem 17: materializability ⟺ the disjunction property).
struct DisjunctionViolation {
  Instance instance;
  std::vector<std::pair<Ucq, std::vector<ElemId>>> disjuncts;

  std::string ToString() const;
};

/// Options for materializability probing.
struct ProbeOptions {
  /// Include Boolean binary atomic queries ∃xy R(x,y) as candidates.
  bool boolean_binary_candidates = true;
  /// Include per-pair binary queries R(d,d') for elements of the instance.
  bool binary_pair_candidates = true;
};

/// Tests the disjunction property of `solver`'s ontology on one instance,
/// over the pool of atomic candidate queries (unary facts per element,
/// binary facts per element pair, Boolean atomic queries). Returns a
/// violation witness if one exists within the pool; nullopt if the pool is
/// exhausted without violation (kUnknown results in the pool make the
/// "no violation" answer inconclusive — reported via `conclusive`).
///
/// The opening consistency check goes through the solver's shared
/// ConsistencyCache: bouquet scans probe many isomorphic instances, so
/// repeated probes (and re-runs, e.g. determinism double-checks) are served
/// from the cache rather than re-chasing. The model it finds settles every
/// candidate it falsifies (such an atom is not certain) without an
/// entailment probe; `model_settled`, when non-null, is increased by the
/// number of probes skipped that way.
std::optional<DisjunctionViolation> FindDisjunctionViolation(
    CertainAnswerSolver& solver, const Instance& instance,
    const std::vector<uint32_t>& signature, bool* conclusive,
    ProbeOptions options = {}, uint64_t* model_settled = nullptr);

}  // namespace gfomq

#endif  // GFOMQ_REASONER_MATERIALIZABILITY_H_
