#ifndef GFOMQ_SERVE_PLANNER_H_
#define GFOMQ_SERVE_PLANNER_H_

#include <cstddef>
#include <vector>

namespace gfomq::serve {

/// The serving backends, in the planner's fixed preference order. Each is
/// *complete* on its eligible inputs:
///  - kFoRewrite: non-recursive UCQ unfolding of the Datalog rewriting,
///    answered by indexed homomorphism matching — eligible when the
///    ontology is PTIME, the rewriting is untruncated and RewriteToUcq
///    closes without recursion/≠/blowup; then it is equivalent to the
///    rewriting by construction.
///  - kDatalogRewrite: the materialized Datalog(≠) fixpoint — eligible
///    when the ontology is PTIME and the rewriting is untruncated.
///  - kCspSat: the Theorem 8 CSP view dispatched to the CDCL SAT solver —
///    eligible when the plan carries the query's CspEncoding (consistency
///    ⟺ homomorphism into the template; consistent inputs answer by base
///    matching because the query relations are ontology-free).
///  - kTableau: the cached chase — always eligible, always complete.
enum class PlanBackend { kFoRewrite, kDatalogRewrite, kCspSat, kTableau };

inline constexpr size_t kNumPlanBackends = 4;

const char* BackendName(PlanBackend b);

/// Compile-time facts that decide which backends are eligible.
struct PlannerInputs {
  bool ptime_complete = false;    // meta decision (or caller) says PTIME
  bool rewrite_truncated = false; // truncated or undecided → incomplete
  bool fo_ok = false;             // RewriteToUcq closed
  bool csp_eligible = false;
};

struct PlannerDecision {
  PlanBackend backend = PlanBackend::kTableau;
  /// True when a PTIME verdict could not be served by datalog/FO because
  /// the rewriting was truncated (surfaced as plan stats — the bugfix this
  /// planner bakes in: truncated programs never serve).
  bool truncated_fallback = false;
  /// The eligible backends, in preference order (the first one wins).
  std::vector<PlanBackend> considered;
};

/// Picks the first eligible *complete* backend in the fixed order
/// FO > datalog > CSP/SAT > tableau. Every bench agrees with that order,
/// and a fixed order never mixes measured latencies with guessed costs.
/// The tableau is always eligible, so the decision always exists.
PlannerDecision ChooseBackend(const PlannerInputs& in);

}  // namespace gfomq::serve

#endif  // GFOMQ_SERVE_PLANNER_H_
