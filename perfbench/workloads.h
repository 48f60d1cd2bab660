// The benchmark's workloads (README.md in this directory): imdb_star and
// dblp_capped run fixed lists of top-k queries in process; serve_clicks
// drives a CirankServer over loopback with two keep-alive clients while
// recording clicks. Every run does a fixed amount of work derived from its
// arguments, never from the clock.
#ifndef CIRANK_WORKLOADS_H_
#define CIRANK_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace cirank {
namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Sizes the operation list: each workload runs a fixed number of
  // operations per second of this value.
  int seconds = 30;
  // Traced mode: builds the engine with a trace collector, reports the
  // per-layer metrics and writes Chrome trace JSON into out_dir.
  bool trace = false;
  std::string out_dir = ".perfbench_out";
  // When the process started; set-up time is measured from here.
  std::chrono::steady_clock::time_point process_start;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Correctness violations; a correct run has none.
  std::vector<std::string> violations;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. A non-OK status means the run could not be set up;
// wrong answers are reported as violations.
[[nodiscard]] Result<RunReport> RunWorkload(const RunConfig& config);

}  // namespace perfbench
}  // namespace cirank

#endif  // CIRANK_WORKLOADS_H_
