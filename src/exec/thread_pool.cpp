#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "util/check.hpp"

namespace g6::exec {

namespace {

/// Which pool (if any) owns the current thread, and its queue index.
struct WorkerTls {
  ThreadPool* pool = nullptr;
  unsigned idx = 0;
};
thread_local WorkerTls t_worker;

// Instrument references resolve once; the registry keeps them alive and
// reset() zeroes in place, so caching across calls is safe.
obs::Counter& tasks_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.tasks");
  return c;
}
obs::Counter& inline_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.inline_tasks");
  return c;
}
obs::Counter& steal_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("exec.steals");
  return c;
}
obs::Gauge& depth_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("exec.queue_depth");
  return g;
}

// The global instance (guarded by g_pool_m). A unique_ptr rather than a
// function-local static so set_global_threads can rebuild it — the
// determinism tests run the same problem at 1/2/8 threads in one process.
Mutex g_pool_m;  // NOLINT(cert-err58-cpp) trivial ctor
std::unique_ptr<ThreadPool> g_pool   // NOLINT(cert-err58-cpp) trivial ctor
    G6_GUARDED_BY(g_pool_m);
unsigned g_requested G6_GUARDED_BY(g_pool_m) = 0;  // last set_global_threads

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  G6_REQUIRE(threads >= 1);
  G6_REQUIRE(threads <= 4096);
  const unsigned workers = threads - 1;
  queues_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(sleep_m_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& th : workers_) th.join();
  // Orphaned tasks (a caller that never joined) still run, on this thread,
  // so their side effects are not silently lost.
  Task t;
  while (pop_task(t)) t();
}

void ThreadPool::submit(Task task) {
  if (queues_.empty()) {
    // Serial fallback: no workers, no queues — run right here. TaskGroup
    // short-circuits before reaching this, but raw submitters need it too.
    // The submitter's attribution scope is already ambient on this thread.
    inline_counter().add(1);
    task();
    return;
  }
  // Carry the submitter's per-job attribution scope (obs/context.hpp) onto
  // whichever thread dequeues the task: submit() is the one funnel every
  // queued task passes through, so scoping here is what makes per-job
  // counters survive the pool boundary. The exec.tasks count below runs on
  // the submitting thread and is charged to the same scope — deterministic,
  // unlike exec.steals which is denied from scopes at the source.
  if (obs::MetricScope* scope = obs::ScopedMetricScope::current()) {
    task = [scope, inner = std::move(task)] {
      const obs::ScopedMetricScope attribution(scope);
      inner();
    };
  }
  tasks_counter().add(1);
  const bool own = t_worker.pool == this;
  const std::size_t target =
      own ? t_worker.idx
          : rr_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    // Local reference so the guard's capability expression names one
    // object the analysis can track (que.m guards que.q).
    Queue& que = *queues_[target];
    MutexLock lk(que.m);
    if (own) {
      que.q.push_front(std::move(task));
    } else {
      que.q.push_back(std::move(task));
    }
  }
  depth_gauge().set(static_cast<double>(
      queued_.fetch_add(1, std::memory_order_relaxed) + 1));
  // Lock/unlock pairs with the worker's check-then-wait under sleep_m_:
  // either the worker sees the queued_ bump, or it is already waiting and
  // the notify reaches it. Without this fence the wakeup can be lost.
  { MutexLock lk(sleep_m_); }
  sleep_cv_.notify_one();
}

bool ThreadPool::pop_task(Task& out) {
  if (queues_.empty()) return false;
  const std::size_t n = queues_.size();
  const bool own = t_worker.pool == this;
  const std::size_t home = own ? t_worker.idx : 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t qi = (home + k) % n;
    Queue& que = *queues_[qi];
    MutexLock lk(que.m);
    if (que.q.empty()) continue;
    if (own && qi == home) {
      // Own queue: LIFO end (depth-first; nested tasks stay warm).
      out = std::move(que.q.front());
      que.q.pop_front();
    } else {
      // Someone else's queue: steal from the FIFO end.
      out = std::move(que.q.back());
      que.q.pop_back();
      steal_counter().add(1);
    }
    depth_gauge().set(static_cast<double>(
        queued_.fetch_sub(1, std::memory_order_relaxed) - 1));
    return true;
  }
  return false;
}

bool ThreadPool::try_run_one() {
  Task t;
  if (!pop_task(t)) return false;
  G6_PHASE("exec.task");
  t();
  return true;
}

void ThreadPool::worker_main(unsigned idx) {
  t_worker.pool = this;
  t_worker.idx = idx;
  for (;;) {
    if (try_run_one()) continue;
    MutexLock lk(sleep_m_);
    if (stop_) return;
    // Re-check under the mutex: a submit between our empty scan and this
    // lock bumped queued_ before notifying, so we cannot miss it.
    if (queued_.load(std::memory_order_relaxed) > 0) continue;
    sleep_cv_.wait(sleep_m_);
    if (stop_) return;
  }
}

unsigned ThreadPool::resolve_thread_count(unsigned requested, const char* env,
                                          unsigned hardware) {
  if (requested >= 1) return std::min(requested, 4096u);
  if (env != nullptr) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 4096) {
      return static_cast<unsigned>(v);
    }
  }
  return std::max(hardware, 1u);
}

ThreadPool& ThreadPool::global() {
  MutexLock lk(g_pool_m);
  if (!g_pool) {
    const unsigned n = resolve_thread_count(
        g_requested, std::getenv("G6_EXEC_THREADS"),
        std::thread::hardware_concurrency());
    g_pool = std::make_unique<ThreadPool>(n);
  }
  return *g_pool;
}

void ThreadPool::set_global_threads(unsigned threads) {
  MutexLock lk(g_pool_m);
  G6_REQUIRE(threads <= 4096);
  g_requested = threads;
  g_pool.reset();  // recreated lazily on the next global()
}

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(pool), st_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() {
  if (waited_) return;
  try {
    wait();
  } catch (...) {  // NOLINT(bugprone-empty-catch) dtor must not throw
  }
}

void TaskGroup::run(Task task) {
  const std::size_t idx = submitted_++;
  waited_ = false;
  if (pool_.worker_count() == 0) {
    // Serial fallback: execute now, on this thread, in submission order.
    // Errors are still deferred to wait() so both modes surface failures
    // at the same point with the same (first-submitted) exception.
    inline_counter().add(1);
    try {
      task();
    } catch (...) {
      // Uncontended here (no workers exist), but errors is guarded: the
      // same TaskGroup may later run with workers after a pool rebuild.
      MutexLock lk(st_->m);
      st_->errors.emplace_back(idx, std::current_exception());
    }
    return;
  }
  {
    MutexLock lk(st_->m);
    ++st_->pending;
  }
  auto st = st_;
  pool_.submit([st, idx, task = std::move(task)]() mutable {
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    // Moved, not copied: the worker keeps no reference to the exception
    // once it unlocks (the waiter owns task exceptions, docs/EXECUTION.md).
    MutexLock lk(st->m);
    if (err) st->errors.emplace_back(idx, std::move(err));
    if (--st->pending == 0) st->cv.notify_all();
  });
}

void TaskGroup::wait() {
  waited_ = true;
  for (;;) {
    {
      MutexLock lk(st_->m);
      if (st_->pending == 0) break;
    }
    // Help instead of blocking: the queued task we pick up may well be one
    // of our own. Never run tasks while holding st_->m (their completion
    // handler locks it).
    if (pool_.try_run_one()) continue;
    MutexLock lk(st_->m);
    if (st_->pending == 0) break;
    st_->cv.wait(st_->m);
  }
  // pending reached 0, so no task can still append — but errors stays
  // guarded and we extract under the lock rather than carve an exception
  // into the annotation contract.
  std::exception_ptr err;
  {
    MutexLock lk(st_->m);
    if (st_->errors.empty()) return;
    const auto it = std::min_element(
        st_->errors.begin(), st_->errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    err = it->second;
    st_->errors.clear();
  }
  std::rethrow_exception(err);
}

}  // namespace g6::exec
