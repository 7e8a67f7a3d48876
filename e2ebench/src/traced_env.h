// TracedEnv — a dmt::Env decorator that records one span per call into the
// runtime, from outside the runtime.
//
// The benchmark wraps the Env returned by dmt::CreateEnv in a TracedEnv for
// its traced passes only; the timed passes run on the bare Env, so the
// difference between the two is the tracing overhead. Every Env method is
// forwarded unchanged (tests/e2ebench_test.cpp checks each one), so a traced
// run executes the identical deterministic schedule.
//
// Spans are kept in memory, one buffer per runtime thread id, each written
// only by the thread that owns the id, and read after the run has joined
// every worker. Store, Load and Tick are the per-access calls — millions per
// kernel run — so they are summed per thread (calls, ns) instead of kept as
// individual spans.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rfdet/api/env.h"

namespace e2e {

enum class Call : uint8_t {
  kLock,
  kUnlock,
  kWait,
  kSignal,
  kBroadcast,
  kBarrier,
  kAtomicLoad,
  kAtomicStore,
  kAtomicFetchAdd,
  kAtomicCas,
  kSpawn,
  kJoin,
  kAlloc,   // AllocStatic / Malloc / TryMalloc / Free
  kCreate,  // CreateMutex / CreateCond / CreateBarrier
  kStore,   // summed, never a span
  kLoad,    // summed, never a span
  kTick,    // summed, never a span
  kThread,  // a spawned thread's body, start to end
  kRun,     // the kernel run on the main thread (the enclosing span)
};
inline constexpr size_t kCallKinds = static_cast<size_t>(Call::kRun) + 1;

[[nodiscard]] const char* CallName(Call call);

struct Span {
  int64_t start_ns = 0;  // steady_clock, relative to the trace epoch
  int64_t end_ns = 0;
  uint32_t tid = 0;      // runtime thread id (dmt::Env::Tid)
  uint32_t run = 0;      // id of the enclosing kernel-run span
  Call kind = Call::kRun;

  [[nodiscard]] int64_t ns() const { return end_ns - start_ns; }
};

// Per-thread sums for the calls that are not kept as spans.
struct CallSum {
  uint64_t calls = 0;
  uint64_t ns = 0;
};

// Cache-line aligned: neighbouring threads write their own entries.
struct alignas(64) ThreadTrace {
  std::vector<Span> spans;
  std::array<CallSum, kCallKinds> sums{};
};

// Everything one traced kernel run recorded.
struct RunTrace {
  uint32_t run = 0;
  std::string kernel;
  std::vector<ThreadTrace> threads;  // indexed by runtime tid

  // All spans of the run, in start order.
  [[nodiscard]] std::vector<Span> Spans() const;
};

class TracedEnv final : public dmt::Env {
 public:
  // `epoch` anchors span timestamps; `max_threads` bounds the tid space (the
  // BackendConfig value the inner Env was built with).
  TracedEnv(std::unique_ptr<dmt::Env> inner, uint32_t run,
            std::chrono::steady_clock::time_point epoch, size_t max_threads);

  TracedEnv(const TracedEnv&) = delete;
  TracedEnv& operator=(const TracedEnv&) = delete;

  // Brackets the kernel run on the main thread (the kRun span).
  void BeginRun();
  void EndRun();
  // Moves the recorded trace out; call after the run, from the main thread.
  [[nodiscard]] RunTrace TakeTrace(std::string kernel);

  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] bool Deterministic() const override;
  [[nodiscard]] size_t Tid() const override;

  dmt::GAddr AllocStatic(size_t bytes, size_t align) override;
  dmt::GAddr Malloc(size_t bytes) override;
  void Free(dmt::GAddr addr) override;
  void Store(dmt::GAddr addr, const void* src, size_t len) override;
  void Load(dmt::GAddr addr, void* dst, size_t len) override;
  void Tick(uint64_t words) override;
  dmt::GAddr TryMalloc(size_t bytes) override;

  size_t Spawn(std::function<void()> fn) override;
  int TrySpawn(std::function<void()> fn, size_t* out_tid) override;
  void Join(size_t tid) override;

  uint64_t AtomicLoad(dmt::GAddr addr) override;
  void AtomicStore(dmt::GAddr addr, uint64_t value) override;
  uint64_t AtomicFetchAdd(dmt::GAddr addr, uint64_t delta) override;
  bool AtomicCas(dmt::GAddr addr, uint64_t& expected,
                 uint64_t desired) override;

  size_t CreateMutex() override;
  size_t CreateCond() override;
  size_t CreateBarrier(size_t parties) override;
  void Lock(size_t mutex_id) override;
  void Unlock(size_t mutex_id) override;
  void Wait(size_t cond_id, size_t mutex_id) override;
  void Signal(size_t cond_id) override;
  void Broadcast(size_t cond_id) override;
  void Barrier(size_t barrier_id) override;

  [[nodiscard]] dmt::ExecHints ExecDefaults() const override;
  void NoteExec(rfdet::ExecEvent event, uint64_t n) override;

  [[nodiscard]] rfdet::StatsSnapshot Stats() const override;
  [[nodiscard]] size_t FootprintBytes() const override;
  uint64_t FinalizeFingerprint() override;
  [[nodiscard]] std::string LastDivergenceReport() const override;
  [[nodiscard]] std::string RaceReportText() const override;
  bool Checkpoint() override;
  [[nodiscard]] bool Restored() const override;

 private:
  [[nodiscard]] int64_t Now() const;
  [[nodiscard]] size_t CheckedTid() const;
  void Record(Call kind, int64_t start_ns);
  void Add(Call kind, int64_t start_ns);
  std::function<void()> WrapThread(std::function<void()> fn);

  std::unique_ptr<dmt::Env> inner_;
  uint32_t run_;
  std::chrono::steady_clock::time_point epoch_;
  int64_t run_start_ns_ = 0;
  std::vector<ThreadTrace> threads_;
};

}  // namespace e2e
