// Measurement helpers shared by the perfbench workloads: a monotonic clock,
// percentiles, the metric table printed as the final JSON line, the span
// recorder of the traced pass, and host diagnostics.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (q in [0,1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
/// Arithmetic mean of `samples`; 0 when empty.
double Mean(const std::vector<double>& samples);

/// Latencies of one command class in fixed memory: the exact count and
/// mean, and percentiles from a seeded uniform reservoir of at most
/// `capacity` samples, so a long run's storage does not grow with it.
class LatencySample {
 public:
  LatencySample(size_t capacity, uint64_t seed)
      : capacity_(capacity), rng_(seed) {
    reservoir_.reserve(capacity);
  }
  void Add(double us);
  uint64_t count() const { return count_; }
  double Mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  double Percentile(double q) const;

 private:
  size_t capacity_;
  gfomq::Rng rng_;
  uint64_t count_ = 0;
  double sum_ = 0;
  std::vector<double> reservoir_;
};

/// The metrics of one run, in insertion order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": u}, ...} with full double precision.
  std::string ToJson() const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// One span of the traced pass: a timed call into a layer's public
/// function, its parent span (-1 at top level) and the trace index of the
/// request it served.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t request;
};

/// In-memory span recorder. Spans are appended on Begin and closed on End;
/// nothing is written until Dump, after the measured work.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}
  /// Opens a span nested in the innermost open one; returns its index.
  int32_t Begin(const char* name, int64_t request);
  void End(int32_t span);
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (µs) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Writes every span as one JSON document; false when the file cannot
  /// be written.
  bool Dump(const std::string& path, const std::string& header_json) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span: a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer),
        span_(tracer_ != nullptr ? tracer_->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t span_;
};

/// Host facts recorded with every run, to separate host spread from
/// program spread. Diagnostics only, never end-to-end metrics.
struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string affinity;  // allowed CPUs, e.g. "0-3"
  double calibration_ms = 0;  // median of a fixed integer-work loop
  std::string ToJson() const;
};
HostInfo ProbeHost();

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Restricts the calling thread (and threads it creates later) to `cpus`
/// allowed CPUs, taken from the end of the current affinity mask. Returns
/// false when fewer CPUs are allowed.
bool PinToLastCpus(unsigned cpus);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
