// Tests of the benchmark itself: the TracedEnv forwards every Env method,
// the span arithmetic is right on synthetic spans, and each workload runs
// clean at minimum size with traced and untraced runs agreeing.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "layer_stats.h"
#include "suite.h"
#include "traced_env.h"

namespace e2e {
namespace {

// Counts every call and returns recognisable values, so a method the
// decorator fails to forward (or forwards to the wrong place) shows.
class FakeEnv final : public dmt::Env {
 public:
  explicit FakeEnv(std::map<std::string, int>* calls) : calls_(calls) {}

  std::string Name() const override { return Note("Name"), "fake"; }
  bool Deterministic() const override { return Note("Deterministic"), true; }
  size_t Tid() const override { return 0; }
  dmt::GAddr AllocStatic(size_t, size_t) override {
    return Note("AllocStatic"), 11;
  }
  dmt::GAddr Malloc(size_t) override { return Note("Malloc"), 12; }
  void Free(dmt::GAddr) override { Note("Free"); }
  void Store(dmt::GAddr, const void*, size_t) override { Note("Store"); }
  void Load(dmt::GAddr, void*, size_t) override { Note("Load"); }
  void Tick(uint64_t) override { Note("Tick"); }
  dmt::GAddr TryMalloc(size_t) override { return Note("TryMalloc"), 13; }
  size_t Spawn(std::function<void()> fn) override {
    fn();
    return Note("Spawn"), 1;
  }
  int TrySpawn(std::function<void()> fn, size_t* out_tid) override {
    fn();
    *out_tid = 2;
    return Note("TrySpawn"), 0;
  }
  void Join(size_t) override { Note("Join"); }
  uint64_t AtomicLoad(dmt::GAddr) override { return Note("AtomicLoad"), 21; }
  void AtomicStore(dmt::GAddr, uint64_t) override { Note("AtomicStore"); }
  uint64_t AtomicFetchAdd(dmt::GAddr, uint64_t) override {
    return Note("AtomicFetchAdd"), 22;
  }
  bool AtomicCas(dmt::GAddr, uint64_t& expected, uint64_t) override {
    expected = 23;
    return Note("AtomicCas"), true;
  }
  size_t CreateMutex() override { return Note("CreateMutex"), 31; }
  size_t CreateCond() override { return Note("CreateCond"), 32; }
  size_t CreateBarrier(size_t) override { return Note("CreateBarrier"), 33; }
  void Lock(size_t) override { Note("Lock"); }
  void Unlock(size_t) override { Note("Unlock"); }
  void Wait(size_t, size_t) override { Note("Wait"); }
  void Signal(size_t) override { Note("Signal"); }
  void Broadcast(size_t) override { Note("Broadcast"); }
  void Barrier(size_t) override { Note("Barrier"); }
  dmt::ExecHints ExecDefaults() const override {
    Note("ExecDefaults");
    return {.pool_threads = 7};
  }
  void NoteExec(rfdet::ExecEvent, uint64_t) override { Note("NoteExec"); }
  rfdet::StatsSnapshot Stats() const override {
    Note("Stats");
    rfdet::StatsSnapshot s;
    s.locks = 41;
    return s;
  }
  size_t FootprintBytes() const override {
    return Note("FootprintBytes"), 42;
  }
  uint64_t FinalizeFingerprint() override {
    return Note("FinalizeFingerprint"), 43;
  }
  std::string LastDivergenceReport() const override {
    return Note("LastDivergenceReport"), "div";
  }
  std::string RaceReportText() const override {
    return Note("RaceReportText"), "race";
  }
  bool Checkpoint() override { return Note("Checkpoint"), true; }
  bool Restored() const override { return Note("Restored"), true; }

 private:
  void Note(const char* method) const { ++(*calls_)[method]; }
  std::map<std::string, int>* calls_;
};

TEST(TracedEnvTest, ForwardsEveryEnvMethod) {
  std::map<std::string, int> calls;
  TracedEnv env(std::make_unique<FakeEnv>(&calls), 5,
                std::chrono::steady_clock::now(), 4);
  env.BeginRun();
  EXPECT_EQ(env.Name(), "fake");
  EXPECT_TRUE(env.Deterministic());
  EXPECT_EQ(env.AllocStatic(8, 8), 11u);
  EXPECT_EQ(env.Malloc(8), 12u);
  env.Free(12);
  uint64_t word = 0;
  env.Store(11, &word, sizeof word);
  env.Load(11, &word, sizeof word);
  env.Tick(1);
  EXPECT_EQ(env.TryMalloc(8), 13u);
  int ran = 0;
  EXPECT_EQ(env.Spawn([&] { ++ran; }), 1u);
  size_t tid = 0;
  EXPECT_EQ(env.TrySpawn([&] { ++ran; }, &tid), 0);
  EXPECT_EQ(tid, 2u);
  EXPECT_EQ(ran, 2);
  env.Join(1);
  EXPECT_EQ(env.AtomicLoad(11), 21u);
  env.AtomicStore(11, 1);
  EXPECT_EQ(env.AtomicFetchAdd(11, 1), 22u);
  uint64_t expected = 0;
  EXPECT_TRUE(env.AtomicCas(11, expected, 1));
  EXPECT_EQ(expected, 23u);
  EXPECT_EQ(env.CreateMutex(), 31u);
  EXPECT_EQ(env.CreateCond(), 32u);
  EXPECT_EQ(env.CreateBarrier(2), 33u);
  env.Lock(31);
  env.Unlock(31);
  env.Wait(32, 31);
  env.Signal(32);
  env.Broadcast(32);
  env.Barrier(33);
  EXPECT_EQ(env.ExecDefaults().pool_threads, 7u);
  env.NoteExec(rfdet::ExecEvent::kRegion, 1);
  EXPECT_EQ(env.Stats().locks, 41u);
  EXPECT_EQ(env.FootprintBytes(), 42u);
  EXPECT_EQ(env.FinalizeFingerprint(), 43u);
  EXPECT_EQ(env.LastDivergenceReport(), "div");
  EXPECT_EQ(env.RaceReportText(), "race");
  EXPECT_TRUE(env.Checkpoint());
  EXPECT_TRUE(env.Restored());
  env.EndRun();

  // Every method of the fake reached exactly once (Tid is the decorator's
  // own bookkeeping and is not counted).
  EXPECT_EQ(calls.size(), 34u);
  for (const auto& [method, n] : calls) EXPECT_EQ(n, 1) << method;

  const RunTrace trace = env.TakeTrace("fake");
  const auto& sums = trace.threads[0].sums;
  EXPECT_EQ(sums[static_cast<size_t>(Call::kStore)].calls, 1u);
  EXPECT_EQ(sums[static_cast<size_t>(Call::kLoad)].calls, 1u);
  EXPECT_EQ(sums[static_cast<size_t>(Call::kTick)].calls, 1u);
  std::map<Call, int> kinds;
  for (const Span& s : trace.Spans()) {
    ++kinds[s.kind];
    EXPECT_EQ(s.run, 5u);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_EQ(kinds[Call::kAlloc], 4);   // AllocStatic, Malloc, Free, TryMalloc
  EXPECT_EQ(kinds[Call::kCreate], 3);
  EXPECT_EQ(kinds[Call::kSpawn], 2);
  EXPECT_EQ(kinds[Call::kThread], 2);
  EXPECT_EQ(kinds[Call::kLock], 1);
  EXPECT_EQ(kinds[Call::kWait], 1);
  EXPECT_EQ(kinds[Call::kRun], 1);
}

TEST(LayerStatsTest, NearestRankPercentiles) {
  std::vector<int64_t> v;
  for (int64_t i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7}, 50), 7);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({1, 2, 3}, 50), 2);
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 50), 2);
}

TEST(LayerStatsTest, GrowthComparesLastQuarterToFirst) {
  EXPECT_DOUBLE_EQ(Growth({1, 1, 9, 9, 9, 9, 5, 5}), 5.0);
  EXPECT_DOUBLE_EQ(Growth({4, 4, 4, 4}), 1.0);
  // 9 acquires: quarters of 2, the middle 5 ignored.
  EXPECT_DOUBLE_EQ(Growth({2, 4, 100, 100, 100, 100, 100, 6, 12}), 3.0);
  EXPECT_DOUBLE_EQ(Growth({1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(Growth({}), 0.0);
}

double Find(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

TEST(LayerStatsTest, SplitsThreadTimeAndWeightsGrowthByAcquires) {
  // Kernel A: main runs 0..1000 with one join; worker 1 lives 100..900 and
  // takes 8 locks whose latency doubles; 200 ns of stores, 100 of loads.
  TracedRun a;
  a.trace.threads.resize(2);
  a.trace.threads[0].spans = {{0, 1000, 0, 0, Call::kRun},
                              {850, 950, 0, 0, Call::kJoin}};
  auto& w = a.trace.threads[1];
  w.spans.push_back({100, 900, 1, 0, Call::kThread});
  const int64_t lat[8] = {10, 10, 10, 10, 20, 20, 20, 20};
  for (int i = 0; i < 8; ++i) {
    w.spans.push_back({200 + 10 * i, 200 + 10 * i + lat[i], 1, 0,
                       Call::kLock});
  }
  w.sums[static_cast<size_t>(Call::kStore)] = {4, 200};
  w.sums[static_cast<size_t>(Call::kLoad)] = {2, 100};
  a.stats.slices_propagated = 18;
  a.stats.metadata_peak_bytes = 500;
  // Kernel B: 4 flat locks of 100 ns on main.
  TracedRun b;
  b.trace.threads.resize(1);
  b.trace.threads[0].spans = {{0, 1000, 0, 1, Call::kRun}};
  for (int i = 0; i < 4; ++i) {
    b.trace.threads[0].spans.push_back({10 * i, 10 * i + 100, 0, 1,
                                        Call::kLock});
  }
  b.stats.slices_propagated = 8;
  b.stats.metadata_peak_bytes = 300;

  const std::vector<Metric> m = LayerMetrics("ci", {a, b});
  EXPECT_EQ(Find(m, "ci.runtime.lock_ns_p50"), 20);
  EXPECT_EQ(Find(m, "ci.runtime.lock_ns_p99"), 100);
  // (A: 20+20, B: 100) over (A: 10+10, B: 100).
  EXPECT_DOUBLE_EQ(Find(m, "ci.runtime.lock_ns_growth"), 140.0 / 120.0);
  EXPECT_EQ(Find(m, "ci.runtime.join_ns_p50"), 100);
  EXPECT_EQ(Find(m, "ci.runtime.store_ns_total"), 200);
  EXPECT_EQ(Find(m, "ci.runtime.load_ns_total"), 100);
  // Locks 120 + 400, join 100.
  EXPECT_EQ(Find(m, "ci.runtime.sync_ns_total"), 620);
  // Main A 1000-100, worker 800-120-300, main B 1000-400.
  EXPECT_EQ(Find(m, "ci.runtime.compute_ns_total"), 900 + 380 + 600);
  // 26 slices over 13 acquires (12 locks + 1 join).
  EXPECT_DOUBLE_EQ(Find(m, "ci.slice.propagated_per_acquire"), 2.0);
  EXPECT_EQ(Find(m, "ci.mem.metadata_peak_bytes"), 500);
}

// The smoke mode: every workload at minimum size, one round, traced. All
// operations pass, and the traced passes reproduce the untraced signatures
// and the recorded fingerprint rollups.
class WorkloadSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmokeTest, TracedAndUntracedRunsAgree) {
  Options o;
  o.workload = GetParam();
  o.seed = 7;
  o.seconds = 0;
  o.scale = 1;
  o.trace = true;
  o.workdir = ::testing::TempDir();
  const Report r = RunBenchmark(o);
  for (const std::string& f : r.failures) ADD_FAILURE() << f;
  const uint64_t nk = FindSpec(o.workload)->kernels.size();
  // Per input set a record and one round of ci, pf and verify; then the
  // traced ci, pf and verify passes.
  EXPECT_EQ(r.attempted, nk * (kInputSets * (1 + 3) + 3));
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.traced_ci_signatures, r.ci_signatures);
  ASSERT_EQ(r.rollups.size(), nk);
  for (const std::vector<uint64_t>& rollups : r.rollups) {
    ASSERT_EQ(rollups.size(), 3u);  // record, verify, traced verify
    EXPECT_NE(rollups[0], 0u);
    EXPECT_EQ(rollups[1], rollups[0]);
    EXPECT_EQ(rollups[2], rollups[0]);
  }
  EXPECT_EQ(r.end_to_end.size(), 6u);
  for (const Metric& m : r.end_to_end) EXPECT_GT(m.value, 0) << m.name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmokeTest,
                         ::testing::Values("lock-history", "barrier-phases",
                                           "graph-exec"),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// BENCHMARK.json lists exactly the metrics the benchmark prints.
TEST(BenchmarkJsonTest, ListsEveryPrintedMetric) {
  std::ifstream in(E2EBENCH_JSON);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  Options o;
  o.workload = "graph-exec";
  o.seconds = 0;
  o.scale = 1;
  o.trace = true;
  o.workdir = ::testing::TempDir();
  const Report r = RunBenchmark(o);
  size_t units = 0;
  for (size_t at = json.find("\"unit\""); at != std::string::npos;
       at = json.find("\"unit\"", at + 1)) {
    ++units;
  }
  EXPECT_EQ(units, r.end_to_end.size() + r.per_layer.size());
  for (const auto* set : {&r.end_to_end, &r.per_layer}) {
    for (const Metric& m : *set) {
      EXPECT_NE(json.find("{\"name\": \"" + m.name + "\", \"unit\": \"" +
                          m.unit + "\""),
                std::string::npos)
          << m.name;
    }
  }
}

}  // namespace
}  // namespace e2e
