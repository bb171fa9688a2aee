#include "serve/planner.h"

namespace gfomq::serve {

const char* BackendName(PlanBackend b) {
  switch (b) {
    case PlanBackend::kFoRewrite:
      return "fo";
    case PlanBackend::kDatalogRewrite:
      return "datalog";
    case PlanBackend::kCspSat:
      return "cspsat";
    case PlanBackend::kTableau:
      return "tableau";
  }
  return "?";
}

PlannerDecision ChooseBackend(const PlannerInputs& in) {
  PlannerDecision decision;
  const bool datalog_complete = in.ptime_complete && !in.rewrite_truncated;
  decision.truncated_fallback = in.ptime_complete && in.rewrite_truncated;
  if (datalog_complete && in.fo_ok) {
    decision.considered.push_back(PlanBackend::kFoRewrite);
  }
  if (datalog_complete) {
    decision.considered.push_back(PlanBackend::kDatalogRewrite);
  }
  if (in.csp_eligible) decision.considered.push_back(PlanBackend::kCspSat);
  decision.considered.push_back(PlanBackend::kTableau);
  decision.backend = decision.considered.front();
  return decision;
}

}  // namespace gfomq::serve
