// The perfbench workloads. Each runs in one process: set-up (timed
// separately), an untimed warm-up, a timed closed loop of `seconds`, and an
// output check outside the timed region. With `trace` set, the run emits
// the per-layer metrics of a traced replay instead of the end-to-end ones.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/scheduler.h"
#include "measure.h"

namespace perfbench {

/// Bouquet outdegree bound of every workload's meta decision
/// (BouquetOptions::max_outdegree). The default bound 3 makes registering
/// even a 3-sentence ontology take minutes (NOTES.md, Findings).
inline constexpr uint32_t kBouquetOutdegree = 1;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced pass writes its spans ("" = nowhere).
  std::string trace_out;
  /// The run's host diagnostics (HostInfo::ToJson), for the span file.
  std::string host_json;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first offending operation, for the failure report.
  std::string first_failure;
  Metrics metrics;

  void Fail(const std::string& what) {
    ++failed;
    correct = false;
    if (first_failure.empty()) first_failure = what;
  }
};

/// Sets every per-layer metric of BENCHMARK.json to 0, in its order; a
/// workload then overwrites the metrics of the layers it uses.
void InitLayerMetrics(Metrics* m);
/// Sets one per-layer metric (its unit comes from the table).
void SetLayer(Metrics* m, const std::string& name, double value);
/// Sets the common.scheduler.* metrics to the counter deltas.
void SetSchedulerDeltas(Metrics* m, const gfomq::SchedulerStats& before,
                        const gfomq::SchedulerStats& after);

bool IsServeWorkload(const std::string& name);

/// Runs serve_lookup or serve_churn.
RunResult RunServe(const RunArgs& args);
/// The workload's seeded input (seed lines plus the first `count`
/// commands), one per line, for the determinism self-check.
std::string ServeTraceText(const std::string& workload, uint64_t seed,
                           size_t count);

/// Runs the offline classify batch.
RunResult RunClassify(const RunArgs& args);
/// The classify batch, one ontology per line, for the self-check.
std::string ClassifyBatchText(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
