#include "suite.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include <time.h>
#include <unistd.h>

#include "rfdet/apps/workload.h"
#include "rfdet/backends/backends.h"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr size_t kMaxFailureMessages = 20;

dmt::BackendConfig Config(dmt::BackendKind kind) {
  dmt::BackendConfig c;
  c.kind = kind;
  c.region_bytes = 64u << 20;
  c.static_bytes = 32u << 20;
  // Waiters park instead of spinning. On a virtualized host a spinning
  // waiter burns CPU for as long as the turn holder's vCPU is descheduled,
  // which tied lock-history's ci CPU time to hypervisor steal (spread 0.13
  // over five seeds under the default adaptive wait, 0.05 parked).
  c.turn_wait = "park";
  // Divergences come back as data so the run can count them and go on.
  c.fingerprint_panic = false;
  return c;
}

struct KernelOutcome {
  double seconds = 0;  // the kernel run alone, without Env set-up/teardown
  uint64_t signature = 0;
  uint64_t rollup = 0;
  std::string divergence;
  rfdet::StatsSnapshot stats;
  size_t footprint = 0;
};

// CPU time of every thread of this process, in seconds.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<KernelOutcome> kernels;
  std::vector<TracedRun> traced;  // empty for an untraced pass
};

// Runs every kernel once on a fresh Env each; `epoch` non-null traces.
Pass RunPass(const std::vector<const apps::Workload*>& kernels,
             const apps::Params& params,
             const std::vector<dmt::BackendConfig>& configs,
             const Clock::time_point* epoch, uint32_t* next_run) {
  Pass pass;
  const double c0 = CpuNow();
  const Clock::time_point t0 = Clock::now();
  for (size_t k = 0; k < kernels.size(); ++k) {
    std::unique_ptr<dmt::Env> env = dmt::CreateEnv(configs[k]);
    TracedEnv* traced = nullptr;
    if (epoch != nullptr) {
      auto wrapper = std::make_unique<TracedEnv>(
          std::move(env), (*next_run)++, *epoch, configs[k].max_threads);
      traced = wrapper.get();
      env = std::move(wrapper);
      traced->BeginRun();
    }
    KernelOutcome out;
    const Clock::time_point k0 = Clock::now();
    out.signature = kernels[k]->Run(*env, params).signature;
    out.seconds = Since(k0);
    if (traced != nullptr) traced->EndRun();
    out.rollup = env->FinalizeFingerprint();
    out.divergence = env->LastDivergenceReport();
    out.stats = env->Stats();
    out.footprint = env->FootprintBytes();
    if (traced != nullptr) {
      pass.traced.push_back({traced->TakeTrace(kernels[k]->Name()),
                             out.stats});
    }
    env.reset();
    pass.kernels.push_back(std::move(out));
  }
  pass.wall_s = Since(t0);
  pass.cpu_s = CpuNow() - c0;
  return pass;
}

std::string Mismatch(const char* what, uint64_t got, uint64_t want) {
  return std::string(what) + " " + std::to_string(got) +
         " != " + std::to_string(want);
}

// Writes the spans of a traced pass as tab-separated lines; a per-thread
// sum is a `<call>_sum` line with its call count and total ns in the last
// two columns.
void DumpSpans(const std::filesystem::path& file,
               const std::vector<TracedRun>& runs) {
  std::ofstream out(file);
  out << "run\tkernel\ttid\tcall\tstart_ns\tend_ns\n";
  for (const TracedRun& r : runs) {
    for (const Span& s : r.trace.Spans()) {
      out << s.run << '\t' << r.trace.kernel << '\t' << s.tid << '\t'
          << CallName(s.kind) << '\t' << s.start_ns << '\t' << s.end_ns
          << '\n';
    }
    for (size_t tid = 0; tid < r.trace.threads.size(); ++tid) {
      for (size_t k = 0; k < kCallKinds; ++k) {
        const CallSum& c = r.trace.threads[tid].sums[k];
        if (c.calls == 0) continue;
        out << r.trace.run << '\t' << r.trace.kernel << '\t' << tid << '\t'
            << CallName(static_cast<Call>(k)) << "_sum\t" << c.calls << '\t'
            << c.ns << '\n';
      }
    }
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"lock-history", {"pca", "dedup", "ferret", "water-ns"}, 1},
      {"barrier-phases", {"ocean", "fft", "lu-con", "lu-non"}, 8},
      {"graph-exec", {"pagerank", "bfs", "cc"}, 2},
  };
  return kAll;
}

const WorkloadSpec* FindSpec(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

size_t DefaultThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::clamp<size_t>(cores > 2 ? cores - 2 : 1, 1, 2);
}

namespace {

apps::Params ParamsFor(const Options& options, const WorkloadSpec& spec,
                       uint64_t seed) {
  apps::Params params;
  params.threads = DefaultThreads();
  params.seed = seed;
  params.scale = options.scale > 0 ? options.scale : spec.scale;
  return params;
}

}  // namespace

std::vector<Metric> ReferenceFigures(const Options& options, int reps) {
  const WorkloadSpec* spec = FindSpec(options.workload);
  const apps::Params params = ParamsFor(options, *spec, options.seed);
  const std::pair<const char*, dmt::BackendKind> kBackends[] = {
      {"pthreads", dmt::BackendKind::kPthreads},
      {"dthreads", dmt::BackendKind::kDthreads},
      {"ci", dmt::BackendKind::kRfdetCi},
      {"pf", dmt::BackendKind::kRfdetPf},
  };
  std::vector<Metric> out;
  for (const std::string& name : spec->kernels) {
    const std::vector<const apps::Workload*> one = {apps::FindWorkload(name)};
    std::vector<double> times[std::size(kBackends)];
    for (int r = 0; r < reps; ++r) {
      for (size_t b = 0; b < std::size(kBackends); ++b) {
        times[b].push_back(
            RunPass(one, params, {Config(kBackends[b].second)}, nullptr,
                    nullptr)
                .kernels[0]
                .seconds);
      }
    }
    const double base = Median(times[0]);
    for (size_t b = 0; b < std::size(kBackends); ++b) {
      const std::string key = "ref." + name + "." + kBackends[b].first;
      out.push_back({key + "_s", "s", Median(times[b])});
      if (b > 0) out.push_back({key + "_over_pthreads", "x",
                                Median(times[b]) / base});
    }
  }
  return out;
}

Report RunBenchmark(const Options& options) {
  namespace fs = std::filesystem;
  Report report;
  // Counts one operation (one kernel run on one backend); an empty
  // `problem` means it passed every check.
  auto count_op = [&report](const std::string& what,
                            const std::string& problem) {
    ++report.attempted;
    if (problem.empty()) return;
    ++report.failed;
    if (report.failures.size() < kMaxFailureMessages) {
      report.failures.push_back(what + ": " + problem);
    }
  };
  const WorkloadSpec* spec = FindSpec(options.workload);
  if (spec == nullptr) {
    report.failures.push_back("unknown workload " + options.workload);
    return report;
  }
  std::vector<const apps::Workload*> kernels;
  for (const std::string& name : spec->kernels) {
    kernels.push_back(apps::FindWorkload(name));
  }
  const size_t nk = kernels.size();
  const fs::path fp_dir =
      fs::path(options.workdir) /
      ("fp-" + options.workload + "-" + std::to_string(::getpid()));
  fs::create_directories(fp_dir);
  const std::vector<dmt::BackendConfig> pthreads_cfg(
      nk, Config(dmt::BackendKind::kPthreads));
  const std::vector<dmt::BackendConfig> ci_cfg(
      nk, Config(dmt::BackendKind::kRfdetCi));
  const std::vector<dmt::BackendConfig> pf_cfg(
      nk, Config(dmt::BackendKind::kRfdetPf));

  // One input set per derived seed, each with its own set-up.
  struct InputSet {
    apps::Params params;
    std::vector<dmt::BackendConfig> record_cfg, verify_cfg;
    std::vector<uint64_t> reference;  // pthreads signature per kernel
    std::vector<uint64_t> rollup;     // recorded fingerprint rollup
  };
  std::vector<InputSet> inputs(kInputSets);
  for (size_t j = 0; j < kInputSets; ++j) {
    InputSet& in = inputs[j];
    in.params = ParamsFor(options, *spec, options.seed * kInputSets + j);
    in.record_cfg = ci_cfg;
    in.verify_cfg = ci_cfg;
    for (size_t k = 0; k < nk; ++k) {
      const std::string path =
          (fp_dir / (std::to_string(j) + "-" + spec->kernels[k] + ".fp"))
              .string();
      in.record_cfg[k].fingerprint = rfdet::FingerprintMode::kRecord;
      in.record_cfg[k].fingerprint_path = path;
      in.verify_cfg[k].fingerprint = rfdet::FingerprintMode::kVerify;
      in.verify_cfg[k].fingerprint_path = path;
    }
  }
  auto op_name = [&](const char* pass, size_t j, size_t k) {
    return std::string(pass) + " " + spec->kernels[k] + " seed " +
           std::to_string(inputs[j].params.seed);
  };

  // ---- set-up: pthreads reference signatures + the fingerprint record ----
  std::vector<double> setup_cpu_s, setup_wall_s;
  for (size_t j = 0; j < kInputSets; ++j) {
    InputSet& in = inputs[j];
    const Pass pt = RunPass(kernels, in.params, pthreads_cfg, nullptr, nullptr);
    const Pass rec = RunPass(kernels, in.params, in.record_cfg, nullptr, nullptr);
    setup_cpu_s.push_back(pt.cpu_s + rec.cpu_s);
    setup_wall_s.push_back(pt.wall_s + rec.wall_s);
    for (size_t k = 0; k < nk; ++k) {
      in.reference.push_back(pt.kernels[k].signature);
      in.rollup.push_back(rec.kernels[k].rollup);
      const KernelOutcome& o = rec.kernels[k];
      std::string problem;
      if (!o.divergence.empty()) {
        problem = o.divergence;
      } else if (o.signature != in.reference[k]) {
        problem = Mismatch("signature vs pthreads", o.signature,
                           in.reference[k]);
      }
      count_op(op_name("ci-record", j, k), problem);
    }
  }
  for (size_t k = 0; k < nk; ++k) report.rollups.push_back({inputs[0].rollup[k]});

  // Checks shared by the timed and the traced passes.
  auto check_ci = [&](size_t j, const Pass& ci) {
    for (size_t k = 0; k < nk; ++k) {
      const uint64_t sig = ci.kernels[k].signature;
      const uint64_t want = inputs[j].reference[k];
      count_op(op_name("ci", j, k),
                sig == want ? ""
                            : Mismatch("signature vs pthreads", sig, want));
    }
  };
  auto check_pf = [&](size_t j, const Pass& pf, const Pass& ci) {
    for (size_t k = 0; k < nk; ++k) {
      const uint64_t sig = pf.kernels[k].signature;
      const uint64_t want = inputs[j].reference[k];
      std::string problem;
      if (sig != want) {
        problem = Mismatch("signature vs pthreads", sig, want);
      } else if (sig != ci.kernels[k].signature) {
        problem = Mismatch("signature vs ci", sig, ci.kernels[k].signature);
      }
      count_op(op_name("pf", j, k), problem);
    }
  };
  auto check_verify = [&](size_t j, const Pass& ver) {
    for (size_t k = 0; k < nk; ++k) {
      const KernelOutcome& o = ver.kernels[k];
      const uint64_t want = inputs[j].reference[k];
      std::string problem;
      if (!o.divergence.empty()) {
        problem = o.divergence;
      } else if (o.signature != want) {
        problem = Mismatch("signature vs pthreads", o.signature, want);
      } else if (o.rollup != inputs[j].rollup[k]) {
        problem = Mismatch("rollup vs record", o.rollup, inputs[j].rollup[k]);
      }
      if (j == 0) report.rollups[k].push_back(o.rollup);
      count_op(op_name("ci-verify", j, k), problem);
    }
  };

  // ---- timed rounds: each input set through ci, pf and ci-verify ----------
  // Per input set: CPU and wall time of the ci, pf and ci-verify passes,
  // and the ci pass's largest metadata peak and footprint.
  enum Series {
    kCiCpu, kPfCpu, kVerifyCpu, kCiWall, kPfWall, kVerifyWall,
    kMeta, kFootprint, kSeries
  };
  std::vector<std::array<std::vector<double>, kSeries>> series(kInputSets);
  std::vector<std::vector<double>> ci_kernel_s(nk);
  size_t rounds = 0;
  const Clock::time_point timed0 = Clock::now();
  do {
    for (size_t j = 0; j < kInputSets; ++j) {
      const apps::Params& params = inputs[j].params;
      const Pass ci = RunPass(kernels, params, ci_cfg, nullptr, nullptr);
      const Pass pf = RunPass(kernels, params, pf_cfg, nullptr, nullptr);
      const Pass ver =
          RunPass(kernels, params, inputs[j].verify_cfg, nullptr, nullptr);
      check_ci(j, ci);
      check_pf(j, pf, ci);
      check_verify(j, ver);
      if (report.ci_signatures.empty()) {
        for (const KernelOutcome& o : ci.kernels) {
          report.ci_signatures.push_back(o.signature);
        }
      }
      size_t meta = 0;
      size_t footprint = 0;
      for (size_t k = 0; k < nk; ++k) {
        const KernelOutcome& o = ci.kernels[k];
        ci_kernel_s[k].push_back(o.seconds);
        meta = std::max(meta, o.stats.metadata_peak_bytes);
        footprint = std::max(footprint, o.footprint);
      }
      auto& s = series[j];
      s[kCiCpu].push_back(ci.cpu_s);
      s[kPfCpu].push_back(pf.cpu_s);
      s[kVerifyCpu].push_back(ver.cpu_s);
      s[kCiWall].push_back(ci.wall_s);
      s[kPfWall].push_back(pf.wall_s);
      s[kVerifyWall].push_back(ver.wall_s);
      s[kMeta].push_back(static_cast<double>(meta));
      s[kFootprint].push_back(static_cast<double>(footprint));
    }
    ++rounds;
    // Start another round only if one more is expected to fit.
  } while (Since(timed0) * (1.0 + 1.0 / static_cast<double>(rounds)) <=
           options.seconds);

  // The median over each input set's passes, averaged over the input sets.
  auto metric = [&](Series which) {
    double sum = 0;
    for (const auto& s : series) sum += Median(s[which]);
    return sum / static_cast<double>(kInputSets);
  };
  report.end_to_end = {
      {"setup_s", "s", Median(setup_cpu_s)},
      {"ci_cpu_s", "s", metric(kCiCpu)},
      {"pf_cpu_s", "s", metric(kPfCpu)},
      {"ci_verify_cpu_s", "s", metric(kVerifyCpu)},
      {"ci_metadata_peak_bytes", "bytes", metric(kMeta)},
      {"ci_footprint_bytes", "bytes", metric(kFootprint)},
  };
  // Wall times follow the host's scheduling noise too closely to gate on
  // (see README.md); they are printed beside the gated CPU times.
  report.info = {
      {"setup_wall_s", "s", Median(setup_wall_s)},
      {"ci_wall_s", "s", metric(kCiWall)},
      {"pf_wall_s", "s", metric(kPfWall)},
      {"ci_verify_wall_s", "s", metric(kVerifyWall)},
      {"rounds", "count", static_cast<double>(rounds)},
      {"threads", "count", static_cast<double>(inputs[0].params.threads)},
      {"scale", "count", static_cast<double>(inputs[0].params.scale)},
  };
  for (size_t k = 0; k < nk; ++k) {
    report.info.push_back({"ci_wall_s." + spec->kernels[k], "s",
                           Median(ci_kernel_s[k])});
  }

  // ---- traced passes on the first input set: ci, pf and a traced verify --
  if (options.trace) {
    const apps::Params& params = inputs[0].params;
    const Clock::time_point epoch = Clock::now();
    uint32_t next_run = 0;
    const Pass ci = RunPass(kernels, params, ci_cfg, &epoch, &next_run);
    const Pass pf = RunPass(kernels, params, pf_cfg, &epoch, &next_run);
    const Pass ver =
        RunPass(kernels, params, inputs[0].verify_cfg, &epoch, &next_run);
    check_ci(0, ci);
    check_pf(0, pf, ci);
    check_verify(0, ver);
    for (const KernelOutcome& o : ci.kernels) {
      report.traced_ci_signatures.push_back(o.signature);
    }
    report.per_layer = LayerMetrics("ci", ci.traced);
    for (Metric& m : LayerMetrics("pf", pf.traced)) {
      report.per_layer.push_back(std::move(m));
    }
    for (Metric& m : VerifyMetrics("ci", ver.traced)) {
      report.per_layer.push_back(std::move(m));
    }
    // CPU time over that of the untraced passes of the same input set.
    report.per_layer.push_back(
        {"ci.trace_overhead", "ratio", ci.cpu_s / Median(series[0][kCiCpu])});
    for (const TracedRun& r : ci.traced) {
      std::vector<int64_t> locks;
      for (const Span& s : r.trace.Spans()) {
        if (s.kind == Call::kLock) locks.push_back(s.ns());
      }
      report.info.push_back({"ci.lock_ns_growth." + r.trace.kernel, "ratio",
                             Growth(locks)});
      report.info.push_back({"ci.locks." + r.trace.kernel, "count",
                             static_cast<double>(locks.size())});
    }
    DumpSpans(fs::path(options.workdir) / ("spans-" + options.workload +
                                           "-ci.tsv"),
              ci.traced);
    DumpSpans(fs::path(options.workdir) / ("spans-" + options.workload +
                                           "-pf.tsv"),
              pf.traced);
  }

  std::error_code ec;
  fs::remove_all(fp_dir, ec);
  return report;
}

}  // namespace e2e
