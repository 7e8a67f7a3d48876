// e2ebench — end-to-end benchmark of RFDet over the dmt::Env API.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>] [--scale <n>] [--smoke]
//            [--reference <reps>]
//
// Prints one `metric <name> <value> <unit>` line per metric (and `info`
// lines for reference figures that are not gated), then, as the
// last line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the metrics are the end-to-end set with --trace 0 and the
// per-layer set with --trace 1. Failed operations go to stderr and are
// counted; the run goes on. Exit status 2 means bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "suite.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] [--scale <n>] "
               "[--smoke] [--reference <reps>]\n",
               why);
  return 2;
}

void PrintMetricLines(const char* tag,
                      const std::vector<e2e::Metric>& metrics) {
  for (const e2e::Metric& m : metrics) {
    std::printf("%s %s %.17g %s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(const e2e::Report& r, const std::vector<e2e::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

bool ParseNumber(std::string_view text, double* out) {
  const std::string s(text);
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size() && *out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  options.workdir = ".";
  int trace = -1;
  int reference = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      options.scale = 1;
      options.seconds = 0;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const std::string_view value = argv[++i];
    double number = 0;
    const bool numeric = ParseNumber(value, &number);
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (!numeric) {
      return Usage("flag values must be non-negative numbers");
    } else if (flag == "--seed") {
      options.seed = std::strtoull(std::string(value).c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      trace = static_cast<int>(number);
    } else if (flag == "--scale") {
      options.scale = static_cast<int>(number);
    } else if (flag == "--reference") {
      reference = static_cast<int>(number);
    } else {
      return Usage("unknown flag");
    }
  }
  if (e2e::FindSpec(options.workload) == nullptr) {
    return Usage("--workload must be lock-history, barrier-phases or "
                 "graph-exec");
  }
  if (reference > 0) {
    PrintMetricLines("info", e2e::ReferenceFigures(options, reference));
    return 0;
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  options.trace = trace == 1;

  const e2e::Report report = e2e::RunBenchmark(options);
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "e2ebench: FAILED %s\n", f.c_str());
  }
  std::printf("operations attempted %llu failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  PrintMetricLines("info", report.info);
  PrintMetricLines("metric", report.end_to_end);
  PrintMetricLines("metric", report.per_layer);
  PrintJson(report, options.trace ? report.per_layer : report.end_to_end);
  return 0;
}
