#include "layer_stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace e2e {

namespace {

// Sums of the first and last quarter of `ns`; {0, 0} below 4 entries.
std::pair<double, double> QuarterSums(const std::vector<int64_t>& ns) {
  const size_t q = ns.size() / 4;
  if (q == 0) return {0, 0};
  double first = 0;
  double last = 0;
  for (size_t i = 0; i < q; ++i) {
    first += static_cast<double>(ns[i]);
    last += static_cast<double>(ns[ns.size() - q + i]);
  }
  return {first, last};
}

bool IsAcquire(Call kind) {
  switch (kind) {
    case Call::kLock:
    case Call::kWait:
    case Call::kBarrier:
    case Call::kJoin:
    case Call::kAtomicLoad:
    case Call::kAtomicFetchAdd:
    case Call::kAtomicCas:
      return true;
    default:
      return false;
  }
}

}  // namespace

double Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const size_t idx =
      std::min(values.size() - 1,
               static_cast<size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return static_cast<double>(values[idx]);
}

double Growth(const std::vector<int64_t>& ns) {
  const auto [first, last] = QuarterSums(ns);
  return first > 0 ? last / first : 0;
}

std::vector<Metric> LayerMetrics(const std::string& backend,
                                 const std::vector<TracedRun>& runs) {
  std::vector<int64_t> by_kind[kCallKinds];
  double growth_first = 0;
  double growth_last = 0;
  uint64_t acquires = 0;
  uint64_t store_ns = 0;
  uint64_t load_ns = 0;
  uint64_t sync_ns = 0;     // every other runtime call
  uint64_t compute_ns = 0;  // thread lifetime outside runtime calls
  rfdet::StatsSnapshot sum;
  size_t resident_peak = 0;
  size_t metadata_peak = 0;

  for (const TracedRun& r : runs) {
    std::vector<int64_t> locks;
    for (const ThreadTrace& t : r.trace.threads) {
      int64_t life = 0;
      int64_t busy = 0;
      for (const Span& s : t.spans) {
        if (s.kind == Call::kThread || s.kind == Call::kRun) {
          life += s.ns();
          continue;
        }
        busy += s.ns();
        sync_ns += static_cast<uint64_t>(s.ns());
        if (IsAcquire(s.kind)) ++acquires;
      }
      for (size_t k = 0; k < kCallKinds; ++k) {
        const CallSum& c = t.sums[k];
        busy += static_cast<int64_t>(c.ns);
        if (static_cast<Call>(k) == Call::kStore) {
          store_ns += c.ns;
        } else if (static_cast<Call>(k) == Call::kLoad) {
          load_ns += c.ns;
        } else {
          sync_ns += c.ns;
        }
      }
      if (life > busy) compute_ns += static_cast<uint64_t>(life - busy);
    }
    for (const Span& s : r.trace.Spans()) {
      by_kind[static_cast<size_t>(s.kind)].push_back(s.ns());
      if (s.kind == Call::kLock) locks.push_back(s.ns());
    }
    const auto [first, last] = QuarterSums(locks);
    growth_first += first;
    growth_last += last;

    const rfdet::StatsSnapshot& s = r.stats;
    sum.turn_spins += s.turn_spins;
    sum.turn_parks += s.turn_parks;
    sum.turn_wakeups += s.turn_wakeups;
    sum.turn_handoffs += s.turn_handoffs;
    sum.park_ns += s.park_ns;
    sum.slices_created += s.slices_created;
    sum.slices_merged += s.slices_merged;
    sum.slices_propagated += s.slices_propagated;
    sum.slices_pruned += s.slices_pruned;
    sum.gc_count += s.gc_count;
    sum.coalesced_slices += s.coalesced_slices;
    sum.coalesce_bytes_saved += s.coalesce_bytes_saved;
    sum.bytes_propagated += s.bytes_propagated;
    sum.planned_applies += s.planned_applies;
    sum.apply_plans_built += s.apply_plans_built;
    sum.lazy_pages_applied += s.lazy_pages_applied;
    sum.pages_diffed += s.pages_diffed;
    sum.close_turn_ns += s.close_turn_ns;
    sum.stores_with_copy += s.stores_with_copy;
    sum.page_faults += s.page_faults;
    sum.mprotect_calls += s.mprotect_calls;
    sum.exec_regions += s.exec_regions;
    sum.exec_chunks += s.exec_chunks;
    sum.exec_items += s.exec_items;
    sum.exec_donations += s.exec_donations;
    resident_peak = std::max(resident_peak, s.resident_bytes);
    metadata_peak = std::max(metadata_peak, s.metadata_peak_bytes);
  }

  auto lat = [&](Call kind, double q) {
    return Percentile(by_kind[static_cast<size_t>(kind)], q);
  };
  uint64_t atomic_calls = 0;
  for (const Call k : {Call::kAtomicLoad, Call::kAtomicStore,
                       Call::kAtomicFetchAdd, Call::kAtomicCas}) {
    atomic_calls += by_kind[static_cast<size_t>(k)].size();
  }
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  const std::string p = backend + ".";
  return {
      {p + "runtime.lock_ns_p50", "ns", lat(Call::kLock, 50)},
      {p + "runtime.lock_ns_p99", "ns", lat(Call::kLock, 99)},
      {p + "runtime.lock_ns_growth", "ratio",
       growth_first > 0 ? growth_last / growth_first : 0},
      {p + "runtime.unlock_ns_p50", "ns", lat(Call::kUnlock, 50)},
      {p + "runtime.cond_wait_ns_p50", "ns", lat(Call::kWait, 50)},
      {p + "runtime.cond_wait_ns_p99", "ns", lat(Call::kWait, 99)},
      {p + "runtime.spawn_ns_p50", "ns", lat(Call::kSpawn, 50)},
      {p + "runtime.join_ns_p50", "ns", lat(Call::kJoin, 50)},
      {p + "runtime.atomic_calls", "count", d(atomic_calls)},
      {p + "runtime.sync_ns_total", "ns", d(sync_ns)},
      {p + "runtime.compute_ns_total", "ns", d(compute_ns)},
      {p + "runtime.store_ns_total", "ns", d(store_ns)},
      {p + "runtime.load_ns_total", "ns", d(load_ns)},
      {p + "kendo.turn_spins", "count", d(sum.turn_spins)},
      {p + "kendo.turn_parks", "count", d(sum.turn_parks)},
      {p + "kendo.turn_wakeups", "count", d(sum.turn_wakeups)},
      {p + "kendo.turn_handoffs", "count", d(sum.turn_handoffs)},
      {p + "kendo.park_ns", "ns", d(sum.park_ns)},
      {p + "slice.slices_created", "count", d(sum.slices_created)},
      {p + "slice.slices_merged", "count", d(sum.slices_merged)},
      {p + "slice.slices_propagated", "count", d(sum.slices_propagated)},
      {p + "slice.propagated_per_acquire", "ratio",
       acquires > 0 ? d(sum.slices_propagated) / d(acquires) : 0},
      {p + "slice.slices_pruned", "count", d(sum.slices_pruned)},
      {p + "slice.gc_count", "count", d(sum.gc_count)},
      {p + "slice.coalesced_slices", "count", d(sum.coalesced_slices)},
      {p + "slice.coalesce_bytes_saved", "bytes", d(sum.coalesce_bytes_saved)},
      {p + "mem.bytes_propagated", "bytes", d(sum.bytes_propagated)},
      {p + "mem.planned_applies", "count", d(sum.planned_applies)},
      {p + "mem.apply_plans_built", "count", d(sum.apply_plans_built)},
      {p + "mem.lazy_pages_applied", "count", d(sum.lazy_pages_applied)},
      {p + "mem.pages_diffed", "count", d(sum.pages_diffed)},
      {p + "mem.close_turn_ns", "ns", d(sum.close_turn_ns)},
      {p + "mem.stores_with_copy", "count", d(sum.stores_with_copy)},
      {p + "mem.page_faults", "count", d(sum.page_faults)},
      {p + "mem.mprotect_calls", "count", d(sum.mprotect_calls)},
      {p + "mem.resident_bytes", "bytes", d(resident_peak)},
      {p + "mem.metadata_peak_bytes", "bytes", d(metadata_peak)},
      {p + "exec.regions", "count", d(sum.exec_regions)},
      {p + "exec.chunks", "count", d(sum.exec_chunks)},
      {p + "exec.items", "count", d(sum.exec_items)},
      {p + "exec.donations", "count", d(sum.exec_donations)},
  };
}

std::vector<Metric> VerifyMetrics(const std::string& backend,
                                  const std::vector<TracedRun>& runs) {
  uint64_t events = 0;
  uint64_t epochs = 0;
  for (const TracedRun& r : runs) {
    events += r.stats.fingerprint_events;
    epochs += r.stats.fingerprint_epochs;
  }
  return {
      {backend + ".verify.fingerprint_events", "count",
       static_cast<double>(events)},
      {backend + ".verify.fingerprint_epochs", "count",
       static_cast<double>(epochs)},
  };
}

}  // namespace e2e
