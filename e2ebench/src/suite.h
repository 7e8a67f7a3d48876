// The benchmark's workloads and one benchmark run: set-up, timed rounds of
// untraced passes, and (with tracing) one traced pass per backend.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "layer_stats.h"

namespace e2e {

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> kernels;  // apps::FindWorkload names
  int scale = 1;                     // apps::Params::scale
};

[[nodiscard]] const std::vector<WorkloadSpec>& Workloads();
[[nodiscard]] const WorkloadSpec* FindSpec(std::string_view name);

// Input sets per run, derived from --seed. Kernel work depends on the input
// (dedup's lock count moves by ~7% between seeds, and its O(history) filter
// roughly squares that), so each run cycles through several inputs and its
// medians average the input effect instead of carrying one seed's.
inline constexpr size_t kInputSets = 6;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;    // length of the timed rounds (whole rounds only)
  bool trace = false;
  int scale = 0;          // 0 = the workload's own scale
  std::string workdir;    // fingerprint records and span dumps go here
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;  // figures printed but not gated
  // On the first input set, per kernel: fingerprint rollups of the set-up
  // record and then of every verify pass, and the signatures of the first
  // untraced and the traced ci pass.
  std::vector<std::vector<uint64_t>> rollups;
  std::vector<uint64_t> ci_signatures;
  std::vector<uint64_t> traced_ci_signatures;
};

// Runs one benchmark run; never throws on a failed operation (it is counted
// and the run goes on).
[[nodiscard]] Report RunBenchmark(const Options& options);

// Reference figures, not gated: per kernel, the median wall time of the
// kernel run alone (as bench/fig7_overhead times it) over `reps` runs on
// pthreads, DThreads, rfdet-ci and rfdet-pf, and the Figure 7 ratios over
// the pthreads median.
[[nodiscard]] std::vector<Metric> ReferenceFigures(const Options& options,
                                                   int reps);

// Median of `xs` (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] double Median(std::vector<double> xs);

// Worker threads per kernel run: two, or fewer so that every runtime thread
// (main included) has a core of its own and one core stays free. A
// preempted turn holder stalls every thread: with all four cores of a
// 4-core host busy, one seed's ci pass on lock-history ranged 0.6-2.4 s;
// with one core free, 0.34-0.56 s (wall time, adaptive turn wait).
[[nodiscard]] size_t DefaultThreads();

}  // namespace e2e
