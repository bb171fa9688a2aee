#include <cstdio>
#include <cstdlib>

#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A workload overwrites
// the ones its layers produce; the others stay 0 (the layer is idle there).
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.client.answer_p50_us", "us"},
    {"serve.client.answer_p99_us", "us"},
    {"serve.client.cached_answer_p50_us", "us"},
    {"serve.client.update_p50_us", "us"},
    {"serve.driver.self_answer_p50_us", "us"},
    {"serve.driver.self_cached_answer_p50_us", "us"},
    {"serve.driver.self_update_p50_us", "us"},
    {"serve.session.answer_p50_us", "us"},
    {"serve.session.answer_p99_us", "us"},
    {"serve.session.cached_answer_p50_us", "us"},
    {"serve.session.update_p50_us", "us"},
    {"serve.session.answer_cache_hits", "count"},
    {"serve.session.noop_deltas", "count"},
    {"serve.plan.compile_ms", "ms"},
    {"serve.plan.query_compile_ms", "ms"},
    {"serve.plan_cache.hit_rate", "ratio"},
    {"serve.planner.chosen_fo", "count"},
    {"serve.planner.chosen_datalog", "count"},
    {"serve.planner.chosen_cspsat", "count"},
    {"serve.planner.chosen_tableau", "count"},
    {"serve.planner.truncated_fallbacks", "count"},
    {"datalog.full_evaluations", "count/answer"},
    {"datalog.incremental_refreshes", "count/answer"},
    {"datalog.dred_rounds", "count/answer"},
    {"datalog.overdeleted_facts", "count/answer"},
    {"datalog.rederived_facts", "count/answer"},
    {"datalog.rewrite_ms", "ms"},
    {"datalog.fo_unfold_ms", "ms"},
    {"query.fo_evaluations", "count"},
    {"reasoner.tableau.steps", "count"},
    {"reasoner.tableau.branches_opened", "count"},
    {"reasoner.tableau.guard_match_probes", "count"},
    {"reasoner.tableau.cow_copies", "count"},
    {"reasoner.cache.hit_rate", "ratio"},
    {"reasoner.cache.evictions", "count"},
    {"reasoner.bouquet.decide_p50_ms", "ms"},
    {"reasoner.bouquet.bouquets_probed", "count"},
    {"reasoner.bouquet.violations_found", "count"},
    {"fragments.classify_p50_us", "us"},
    {"dl.translate_p50_us", "us"},
    {"logic.parse_ontology_us", "us"},
    {"logic.parse_ucq_us", "us"},
    {"logic.term_store.hit_rate", "ratio"},
    {"common.scheduler.tasks_submitted", "count"},
    {"common.scheduler.steals", "count"},
    {"common.scheduler.spawn_allowed", "count"},
    {"common.scheduler.spawn_denied", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

}  // namespace

void InitLayerMetrics(Metrics* m) {
  for (const LayerMetric& lm : kLayerMetrics) m->Set(lm.name, 0, lm.unit);
}

void SetLayer(Metrics* m, const std::string& name, double value) {
  for (const LayerMetric& lm : kLayerMetrics) {
    if (name == lm.name) {
      m->Set(name, value, lm.unit);
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               name.c_str());
  std::abort();
}

void SetSchedulerDeltas(Metrics* m, const gfomq::SchedulerStats& before,
                        const gfomq::SchedulerStats& after) {
  SetLayer(m, "common.scheduler.tasks_submitted",
           static_cast<double>(after.tasks_submitted - before.tasks_submitted));
  SetLayer(m, "common.scheduler.steals",
           static_cast<double>(after.steals - before.steals));
  SetLayer(m, "common.scheduler.spawn_allowed",
           static_cast<double>(after.spawn_allowed - before.spawn_allowed));
  SetLayer(m, "common.scheduler.spawn_denied",
           static_cast<double>(after.spawn_denied - before.spawn_denied));
}

}  // namespace perfbench
