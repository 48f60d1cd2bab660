// cirank_perfbench: runs one benchmark workload and prints its result as
// one JSON line (README.md in this directory).
//
//   cirank_perfbench --workload imdb_star --seed 7 --seconds 30 --trace 0
//
// Exit codes: 0 every check passed; 1 a correctness check failed (the JSON
// line says "correct": false); 2 bad arguments or a set-up failure (no
// JSON line).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using cirank::perfbench::Metric;
using cirank::perfbench::RunConfig;
using cirank::perfbench::RunReport;

void Print(std::FILE* stream, const std::string& text) {
  std::fputs(text.c_str(), stream);  // cirank-lint: disable=raw-output
}

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultJson(const RunReport& report, bool trace) {
  const bool correct = report.violations.empty();
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"metrics\": {";
  const auto& metrics = trace ? report.per_layer : report.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}\n";
  return out;
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      config->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || config->seconds < 1 || config->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
    } else if (flag == "--out-dir") {
      config->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.process_start = std::chrono::steady_clock::now();
  if (!ParseArgs(argc, argv, &config)) {
    std::string names;
    for (const std::string& name : cirank::perfbench::WorkloadNames()) {
      names += (names.empty() ? "" : "|") + name;
    }
    Print(stderr, "usage: cirank_perfbench --workload " + names +
                      " [--seed N] [--seconds S] [--trace 0|1]"
                      " [--out-dir DIR]\n");
    return 2;
  }
  cirank::Result<RunReport> report = cirank::perfbench::RunWorkload(config);
  if (!report.ok()) {
    Print(stderr, "perfbench: " + report.status().ToString() + "\n");
    return 2;
  }
  for (const std::string& violation : report->violations) {
    Print(stderr, "VIOLATION: " + violation + "\n");
  }
  Print(stdout, ResultJson(*report, config.trace));
  std::fflush(stdout);
  return report->violations.empty() ? 0 : 1;
}
