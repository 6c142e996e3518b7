// Persistent fork-join worker pool for the parallel space sweeps
// (search/space_optimal.cpp) and the simulator's conflict, collision and
// buffer passes (systolic/engine.cpp).
//
// A caller may run several fork-join jobs on one pool (the simulator runs
// one per pass); the pool pays thread creation once and reuses the same
// OS threads for every job.
//
// Synchronization is a generation counter: run() publishes the job under
// the mutex, bumps the generation, and wakes the workers; each worker runs
// the job once per generation and the last finisher wakes run().  The
// first exception thrown by any worker is captured and rethrown from
// run() after the join, so a failed job fails its caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sysmap::support {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Runs job(worker_index) on every worker, worker_index in [0, size()),
  /// and blocks until all workers finish.  Rethrows the first exception a
  /// worker threw.  Not reentrant: one job at a time.
  void run(const std::function<void(std::size_t)>& job);

 private:
  void worker_loop(std::size_t index);

  // Generation-counter protocol.  All five shared fields below are read and
  // written ONLY under mutex_; the protocol's invariants are:
  //
  //   I1  run() publishes job_, clears error_, sets active_ = size() and
  //       increments generation_ in one critical section, then notifies
  //       cv_work_.  generation_ only ever increases, and only in run().
  //   I2  Each worker keeps a private `seen` counter.  It executes the
  //       published job exactly once per generation: it waits until
  //       generation_ != seen, copies job_ under the mutex, sets
  //       seen = generation_, and runs the copy OUTSIDE the lock (workers
  //       must not serialize on pool state while computing).
  //   I3  Exactly size() workers decrement active_ per generation (one
  //       each); the worker that drops it to 0 notifies cv_done_.  run()
  //       sleeps on cv_done_ until active_ == 0, so run() returning
  //       happens-after every worker's job body for that generation
  //       (mutex release/acquire pairs carry the ordering).  This is the
  //       fence callers rely on when workers write into caller-owned
  //       per-worker slots (the space sweeps' per-worker bests, the
  //       simulator's per-worker streams): those writes need no atomics
  //       because the final decrement of active_ sequences them before
  //       run() returns.
  //   I4  error_ holds the FIRST exception of the current generation;
  //       later ones are dropped.  run() moves it out after the join and
  //       rethrows, so a failure cannot leak into the next generation.
  //   I5  stop_ is set once (destructor) and never cleared; workers
  //       re-check it on every wakeup before touching generation state.
  //       The destructor joins every worker, so worker_loop never touches
  //       a destroyed pool.
  //
  // Not reentrant: run() must not be called concurrently or from a worker
  // (active_ and error_ are per-generation, not per-call).
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::function<void(std::size_t)> job_;
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace sysmap::support
