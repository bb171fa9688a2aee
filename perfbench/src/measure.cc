#include "measure.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  size_t k = rank == 0 ? 0 : rank - 1;
  k = std::min(k, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

void LatencySample::Add(double us) {
  ++count_;
  sum_ += us;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(us);
    return;
  }
  uint64_t slot = rng_.Below(count_);
  if (slot < capacity_) reservoir_[static_cast<size_t>(slot)] = us;
}

double LatencySample::Percentile(double q) const {
  return perfbench::Percentile(reservoir_, q);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (entries_.find(name) == entries_.end()) order_.push_back(name);
  entries_[name] = Entry{value, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const Entry& e = entries_.at(order_[i]);
    if (i) out += ", ";
    out += JsonString(order_[i]) + ": {\"value\": " + JsonNumber(e.value) +
           ", \"unit\": " + JsonString(e.unit) + "}";
  }
  return out + "}";
}

int32_t Tracer::Begin(const char* name, int64_t request) {
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0_)
                    .count();
  int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now, now, parent, request});
  int32_t idx = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
          .count();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

bool Tracer::Dump(const std::string& path,
                  const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run\": " << header_json << ",\n\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// A fixed amount of integer work whose time tracks the host's speed.
double CalibrationLoopMs() {
  Clock::time_point t0 = Clock::now();
  volatile uint64_t x = 1;
  for (uint64_t i = 0; i < 20000000ULL; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return MicrosSince(t0) / 1000.0;
}

}  // namespace

std::string HostInfo::ToJson() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"build_type\": "
      << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"cpu_model\": " << JsonString(cpu_model)
      << ", \"affinity\": " << JsonString(affinity)
      << ", \"calibration_ms\": " << JsonNumber(calibration_ms) << "}";
  return out.str();
}

HostInfo ProbeHost() {
  HostInfo info;
  info.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  info.cpu_model = CpuModel();
  std::vector<int> cpus = AllowedCpus();
  for (size_t i = 0; i < cpus.size(); ++i) {
    if (i) info.affinity += ",";
    info.affinity += std::to_string(cpus[i]);
  }
  std::vector<double> loops;
  for (int i = 0; i < 3; ++i) loops.push_back(CalibrationLoopMs());
  info.calibration_ms = Median(loops);
  return info;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool PinToLastCpus(unsigned cpus) {
  std::vector<int> allowed = AllowedCpus();
  if (allowed.size() < cpus) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = allowed.size() - cpus; i < allowed.size(); ++i) {
    CPU_SET(allowed[i], &set);
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace perfbench
