#include "traced_env.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace e2e {

const char* CallName(Call call) {
  static constexpr const char* kNames[kCallKinds] = {
      "lock",        "unlock",       "cond_wait",        "signal",
      "broadcast",   "barrier",      "atomic_load",      "atomic_store",
      "atomic_fetch_add", "atomic_cas", "spawn",         "join",
      "alloc",       "create",       "store",            "load",
      "tick",        "thread",       "run",
  };
  return kNames[static_cast<size_t>(call)];
}

std::vector<Span> RunTrace::Spans() const {
  std::vector<Span> all;
  for (const ThreadTrace& t : threads) {
    all.insert(all.end(), t.spans.begin(), t.spans.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

TracedEnv::TracedEnv(std::unique_ptr<dmt::Env> inner, uint32_t run,
                     std::chrono::steady_clock::time_point epoch,
                     size_t max_threads)
    : inner_(std::move(inner)), run_(run), epoch_(epoch),
      threads_(max_threads) {
  // Sized up front so recording rarely reallocates inside a timed call.
  for (ThreadTrace& t : threads_) t.spans.reserve(1024);
}

int64_t TracedEnv::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

size_t TracedEnv::CheckedTid() const {
  const size_t tid = inner_->Tid();
  if (tid >= threads_.size()) {
    std::fprintf(stderr, "e2ebench: tid %zu beyond the traced %zu threads\n",
                 tid, threads_.size());
    std::abort();
  }
  return tid;
}

void TracedEnv::Record(Call kind, int64_t start_ns) {
  const int64_t end_ns = Now();
  const size_t tid = CheckedTid();
  threads_[tid].spans.push_back(Span{start_ns, end_ns,
                                     static_cast<uint32_t>(tid), run_, kind});
}

void TracedEnv::Add(Call kind, int64_t start_ns) {
  const int64_t end_ns = Now();
  CallSum& s = threads_[CheckedTid()].sums[static_cast<size_t>(kind)];
  ++s.calls;
  s.ns += static_cast<uint64_t>(end_ns - start_ns);
}

void TracedEnv::BeginRun() { run_start_ns_ = Now(); }

void TracedEnv::EndRun() { Record(Call::kRun, run_start_ns_); }

RunTrace TracedEnv::TakeTrace(std::string kernel) {
  RunTrace trace;
  trace.run = run_;
  trace.kernel = std::move(kernel);
  trace.threads = std::move(threads_);
  threads_.clear();
  return trace;
}

std::function<void()> TracedEnv::WrapThread(std::function<void()> fn) {
  return [this, fn = std::move(fn)] {
    const int64_t start = Now();
    fn();
    Record(Call::kThread, start);
  };
}

std::string TracedEnv::Name() const { return inner_->Name(); }
bool TracedEnv::Deterministic() const { return inner_->Deterministic(); }
size_t TracedEnv::Tid() const { return inner_->Tid(); }

dmt::GAddr TracedEnv::AllocStatic(size_t bytes, size_t align) {
  const int64_t t = Now();
  const dmt::GAddr a = inner_->AllocStatic(bytes, align);
  Record(Call::kAlloc, t);
  return a;
}

dmt::GAddr TracedEnv::Malloc(size_t bytes) {
  const int64_t t = Now();
  const dmt::GAddr a = inner_->Malloc(bytes);
  Record(Call::kAlloc, t);
  return a;
}

void TracedEnv::Free(dmt::GAddr addr) {
  const int64_t t = Now();
  inner_->Free(addr);
  Record(Call::kAlloc, t);
}

void TracedEnv::Store(dmt::GAddr addr, const void* src, size_t len) {
  const int64_t t = Now();
  inner_->Store(addr, src, len);
  Add(Call::kStore, t);
}

void TracedEnv::Load(dmt::GAddr addr, void* dst, size_t len) {
  const int64_t t = Now();
  inner_->Load(addr, dst, len);
  Add(Call::kLoad, t);
}

void TracedEnv::Tick(uint64_t words) {
  const int64_t t = Now();
  inner_->Tick(words);
  Add(Call::kTick, t);
}

dmt::GAddr TracedEnv::TryMalloc(size_t bytes) {
  const int64_t t = Now();
  const dmt::GAddr a = inner_->TryMalloc(bytes);
  Record(Call::kAlloc, t);
  return a;
}

size_t TracedEnv::Spawn(std::function<void()> fn) {
  const int64_t t = Now();
  const size_t tid = inner_->Spawn(WrapThread(std::move(fn)));
  Record(Call::kSpawn, t);
  return tid;
}

int TracedEnv::TrySpawn(std::function<void()> fn, size_t* out_tid) {
  const int64_t t = Now();
  const int rc = inner_->TrySpawn(WrapThread(std::move(fn)), out_tid);
  Record(Call::kSpawn, t);
  return rc;
}

void TracedEnv::Join(size_t tid) {
  const int64_t t = Now();
  inner_->Join(tid);
  Record(Call::kJoin, t);
}

uint64_t TracedEnv::AtomicLoad(dmt::GAddr addr) {
  const int64_t t = Now();
  const uint64_t v = inner_->AtomicLoad(addr);
  Record(Call::kAtomicLoad, t);
  return v;
}

void TracedEnv::AtomicStore(dmt::GAddr addr, uint64_t value) {
  const int64_t t = Now();
  inner_->AtomicStore(addr, value);
  Record(Call::kAtomicStore, t);
}

uint64_t TracedEnv::AtomicFetchAdd(dmt::GAddr addr, uint64_t delta) {
  const int64_t t = Now();
  const uint64_t v = inner_->AtomicFetchAdd(addr, delta);
  Record(Call::kAtomicFetchAdd, t);
  return v;
}

bool TracedEnv::AtomicCas(dmt::GAddr addr, uint64_t& expected,
                          uint64_t desired) {
  const int64_t t = Now();
  const bool ok = inner_->AtomicCas(addr, expected, desired);
  Record(Call::kAtomicCas, t);
  return ok;
}

size_t TracedEnv::CreateMutex() {
  const int64_t t = Now();
  const size_t id = inner_->CreateMutex();
  Record(Call::kCreate, t);
  return id;
}

size_t TracedEnv::CreateCond() {
  const int64_t t = Now();
  const size_t id = inner_->CreateCond();
  Record(Call::kCreate, t);
  return id;
}

size_t TracedEnv::CreateBarrier(size_t parties) {
  const int64_t t = Now();
  const size_t id = inner_->CreateBarrier(parties);
  Record(Call::kCreate, t);
  return id;
}

void TracedEnv::Lock(size_t mutex_id) {
  const int64_t t = Now();
  inner_->Lock(mutex_id);
  Record(Call::kLock, t);
}

void TracedEnv::Unlock(size_t mutex_id) {
  const int64_t t = Now();
  inner_->Unlock(mutex_id);
  Record(Call::kUnlock, t);
}

void TracedEnv::Wait(size_t cond_id, size_t mutex_id) {
  const int64_t t = Now();
  inner_->Wait(cond_id, mutex_id);
  Record(Call::kWait, t);
}

void TracedEnv::Signal(size_t cond_id) {
  const int64_t t = Now();
  inner_->Signal(cond_id);
  Record(Call::kSignal, t);
}

void TracedEnv::Broadcast(size_t cond_id) {
  const int64_t t = Now();
  inner_->Broadcast(cond_id);
  Record(Call::kBroadcast, t);
}

void TracedEnv::Barrier(size_t barrier_id) {
  const int64_t t = Now();
  inner_->Barrier(barrier_id);
  Record(Call::kBarrier, t);
}

dmt::ExecHints TracedEnv::ExecDefaults() const {
  return inner_->ExecDefaults();
}

void TracedEnv::NoteExec(rfdet::ExecEvent event, uint64_t n) {
  inner_->NoteExec(event, n);
}

rfdet::StatsSnapshot TracedEnv::Stats() const { return inner_->Stats(); }
size_t TracedEnv::FootprintBytes() const { return inner_->FootprintBytes(); }
uint64_t TracedEnv::FinalizeFingerprint() {
  return inner_->FinalizeFingerprint();
}
std::string TracedEnv::LastDivergenceReport() const {
  return inner_->LastDivergenceReport();
}
std::string TracedEnv::RaceReportText() const {
  return inner_->RaceReportText();
}
bool TracedEnv::Checkpoint() { return inner_->Checkpoint(); }
bool TracedEnv::Restored() const { return inner_->Restored(); }

}  // namespace e2e
