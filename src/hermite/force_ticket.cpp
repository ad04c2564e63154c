#include "hermite/force_ticket.hpp"

#include <exception>

#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace g6 {

namespace {
// Per-chunk lifecycle. kIdle chunks were never dispatched (a serial-mode
// prologue threw part-way through) and are not waited on.
enum : unsigned char { kIdle = 0, kInFlight = 1, kDone = 2 };
}  // namespace

struct ForceTicket::Job {
  exec::ThreadPool* pool = nullptr;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::function<void(bool)> epilogue;

  Mutex m;
  CondVar cv;
  std::vector<unsigned char> state G6_GUARDED_BY(m);
  std::vector<std::exception_ptr> err G6_GUARDED_BY(m);
  bool finished G6_GUARDED_BY(m) = false;  // epilogue already ran

  bool chunk_done(std::size_t c) {
    MutexLock lk(m);
    return state[c] != kInFlight;
  }

  void wait_chunk(std::size_t c) {
    for (;;) {
      if (chunk_done(c)) return;
      // Help instead of blocking — the task we pick up may be our own
      // chunk. Never run tasks under m: completions lock it.
      if (pool->try_run_one()) continue;
      MutexLock lk(m);
      if (state[c] != kInFlight) return;
      cv.wait(m);
    }
  }
};

ForceTicket::~ForceTicket() { finish(/*rethrow=*/false); }

ForceTicket& ForceTicket::operator=(ForceTicket&& o) noexcept {
  if (this != &o) {
    finish(/*rethrow=*/false);
    job_ = std::move(o.job_);
  }
  return *this;
}

std::size_t ForceTicket::chunk_count() const {
  G6_REQUIRE(job_ != nullptr);
  return job_->ranges.size();
}

std::pair<std::size_t, std::size_t> ForceTicket::chunk_range(
    std::size_t c) const {
  G6_REQUIRE(job_ != nullptr);
  G6_REQUIRE(c < job_->ranges.size());
  return job_->ranges[c];
}

void ForceTicket::wait_chunk(std::size_t c) {
  G6_REQUIRE(job_ != nullptr);
  G6_REQUIRE(c < job_->ranges.size());
  job_->wait_chunk(c);
  MutexLock lk(job_->m);
  if (job_->err[c]) std::rethrow_exception(job_->err[c]);
}

void ForceTicket::wait() { finish(/*rethrow=*/true); }

void ForceTicket::finish(bool rethrow) {
  if (!job_) return;
  for (std::size_t c = 0; c < job_->ranges.size(); ++c) job_->wait_chunk(c);
  std::exception_ptr first;
  {
    // Every error leaves the shared job here, on the waiting thread, so a
    // worker that drops the last Job reference frees no exception.
    MutexLock lk(job_->m);
    for (auto& e : job_->err) {
      // Errors are indexed by chunk: the first one IS the smallest.
      if (!first) first = std::move(e);
      e = nullptr;
    }
    if (!job_->finished) {
      job_->finished = true;
      if (job_->epilogue) job_->epilogue(first == nullptr);
    }
  }
  if (rethrow && first) {
    job_ = nullptr;
    std::rethrow_exception(first);
  }
  job_ = nullptr;
}

ForceTicket ForceTicket::make(
    std::vector<std::pair<std::size_t, std::size_t>> ranges,
    std::function<void(bool)> epilogue, exec::ThreadPool& pool) {
  G6_REQUIRE(!ranges.empty());
  ForceTicket tk;
  tk.job_ = std::make_shared<Job>();
  tk.job_->pool = &pool;
  tk.job_->ranges = std::move(ranges);
  tk.job_->epilogue = std::move(epilogue);
  // Pre-publication, so uncontended — locked to honor the guard contract.
  MutexLock lk(tk.job_->m);
  tk.job_->state.assign(tk.job_->ranges.size(), kIdle);
  tk.job_->err.resize(tk.job_->ranges.size());
  return tk;
}

void ForceTicket::dispatch(std::size_t c, exec::Task body, bool parallel) {
  G6_REQUIRE(job_ != nullptr);
  G6_REQUIRE(c < job_->ranges.size());
  {
    MutexLock lk(job_->m);
    G6_REQUIRE(job_->state[c] == kIdle);
    job_->state[c] = kInFlight;
  }
  if (!parallel) {
    // Serial path: run here, record the error for uniform bookkeeping,
    // then let it propagate so submit_forces throws before the caller
    // overlaps anything (faults must precede any corrector work).
    try {
      body();
    } catch (...) {
      MutexLock lk(job_->m);
      job_->err[c] = std::current_exception();
      job_->state[c] = kDone;
      throw;
    }
    MutexLock lk(job_->m);
    job_->state[c] = kDone;
    return;
  }
  auto job = job_;
  job_->pool->submit([job, c, body = std::move(body)]() {
    std::exception_ptr err;
    try {
      body();
    } catch (...) {
      err = std::current_exception();
    }
    // Moved, not copied: the worker keeps no reference to the exception
    // once it unlocks (the waiter owns task exceptions, docs/EXECUTION.md).
    MutexLock lk(job->m);
    job->err[c] = std::move(err);
    job->state[c] = kDone;
    job->cv.notify_all();
  });
}

}  // namespace g6
