// perfbench: the repository benchmark harness.
//
//   perfbench --workload <serve_lookup|serve_churn|classify>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//   perfbench --dump <workload> --seed <n>    print the seeded input
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Diagnostics go to stderr.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace {

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_lookup|serve_churn|"
               "classify> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n"
               "       perfbench --dump <workload> --seed <n>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string dump;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* val = argv[i + 1];
    uint64_t n = 0;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed" && ParseU64(val, &n)) {
      args.seed = n;
    } else if (key == "--seconds" && ParseU64(val, &n) && n > 0) {
      args.seconds = static_cast<double>(n);
    } else if (key == "--trace" && ParseU64(val, &n) && n <= 1) {
      args.trace = n == 1;
    } else if (key == "--trace-out") {
      args.trace_out = val;
    } else if (key == "--dump") {
      dump = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();

  if (!dump.empty()) {
    std::string text = dump == "classify" ? ClassifyBatchText(args.seed)
                       : IsServeWorkload(dump)
                           ? ServeTraceText(dump, args.seed, 20000)
                           : "";
    if (text.empty()) return Usage();
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  bool classify = args.workload == "classify";
  if (!classify && !IsServeWorkload(args.workload)) return Usage();

  // One client thread plus one driver worker share a core; the classify
  // run's two scheduler workers get two.
  unsigned cpus = classify ? 2 : 1;
  if (!PinToLastCpus(cpus)) {
    std::fprintf(stderr, "perfbench: could not pin to %u CPUs\n", cpus);
  }
  args.host_json = ProbeHost().ToJson();
  std::fprintf(stderr, "perfbench: host %s\n", args.host_json.c_str());

  RunResult result = classify ? RunClassify(args) : RunServe(args);
  if (!result.first_failure.empty()) {
    std::fprintf(stderr,
                 "perfbench: FAILED %llu of %llu operations; first: %s\n",
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted),
                 result.first_failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.ToJson().c_str());
  return 0;
}
