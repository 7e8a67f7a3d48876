// Per-layer metrics computed from the spans a TracedEnv recorded and the
// Env::Stats() counters read at the same boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rfdet/runtime/stats.h"
#include "traced_env.h"

namespace e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Nearest-rank percentile (q in (0, 100]) of `values`; 0 for an empty set.
[[nodiscard]] double Percentile(std::vector<int64_t> values, double q);

// Mean latency of the last quarter of `ns` (acquires in start order) over
// the mean of the first quarter; 0 when there are fewer than 4 acquires.
[[nodiscard]] double Growth(const std::vector<int64_t>& ns);

// One traced kernel run: its spans plus the Stats() read after it.
struct TracedRun {
  RunTrace trace;
  rfdet::StatsSnapshot stats;
};

// The per-layer metrics of one traced pass, named
// `<backend>.<layer>.<metric>` after the src/rfdet modules. The runtime
// layer comes from the spans, kendo/slice/mem/exec from the counters
// (summed over the pass's kernels; resident and metadata peaks are maxima).
[[nodiscard]] std::vector<Metric> LayerMetrics(
    const std::string& backend, const std::vector<TracedRun>& runs);

// The verify layer, from the traced kRecord-verify pass.
[[nodiscard]] std::vector<Metric> VerifyMetrics(
    const std::string& backend, const std::vector<TracedRun>& runs);

}  // namespace e2e
