/**
 * @file
 * Fixed-size thread pool used to parallelize the SR compiler and the
 * experiment sweeps.
 *
 * Design constraints, in order of importance:
 *
 *  1. *Determinism*: the pool only ever executes independent work
 *     items; every parallel site in srsim assigns each item its own
 *     output slot (and, where randomness is involved, its own RNG
 *     stream derived from a base seed and the item index) and
 *     reduces the slots in a fixed order afterwards. Results are
 *     therefore byte-identical for any pool size, including 1.
 *  2. *No deadlock under nesting*: parallelFor() callers participate
 *     in their own loop. A caller never blocks on work that only a
 *     busy worker could run -- in the worst case it executes every
 *     index itself -- so nested parallelFor() (e.g. a load sweep
 *     whose points each run parallel AssignPaths restarts) cannot
 *     starve.
 *  3. *Serial fallback*: a pool of size 1 spawns no threads at all;
 *     submit() and parallelFor() run inline on the caller, in index
 *     order.
 *
 * The global pool's size comes from the SRSIM_THREADS environment
 * variable (default: the hardware concurrency; 1 disables threading
 * entirely).
 */

#ifndef SRSIM_UTIL_THREAD_POOL_HH_
#define SRSIM_UTIL_THREAD_POOL_HH_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace srsim {

/** Fixed-size thread pool with a deterministic parallel-for. */
class ThreadPool
{
  public:
    /**
     * @param threads total concurrency (caller included); a pool of
     * size n spawns n - 1 worker threads. Clamped to >= 1.
     */
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (worker threads + the calling thread). */
    std::size_t size() const { return size_; }

    /**
     * Run f asynchronously and return its future. With a pool of
     * size 1 the task runs inline before submit() returns.
     */
    template <typename F>
    auto
    submit(F &&f) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(f));
        std::future<R> fut = task->get_future();
        if (workers_.empty()) {
            (*task)();
            return fut;
        }
        enqueue([task]() { (*task)(); });
        return fut;
    }

    /**
     * Execute body(0), ..., body(n - 1), each exactly once.
     *
     * The calling thread participates; worker threads join as they
     * become free. Blocks until every index has completed. If any
     * body invocation throws, the remaining indices still run and
     * the exception thrown by the *lowest* index is rethrown here
     * (lowest-index selection keeps the propagated error independent
     * of thread count).
     */
    void
    parallelFor(std::size_t n,
                const std::function<void(std::size_t)> &body);

    /**
     * The process-wide pool, lazily created with the size given by
     * the SRSIM_THREADS environment variable (default: hardware
     * concurrency).
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of the given size (used by
     * tests and benchmarks to pin the thread count at runtime).
     * Must not be called while the global pool is executing work.
     */
    static void setGlobalSize(std::size_t threads);

    /** Pool size requested by SRSIM_THREADS (>= 1). */
    static std::size_t configuredSize();

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();
    /** Tell the workers to drain and exit, then join them. */
    void stopWorkers();

    std::size_t size_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace srsim

#endif // SRSIM_UTIL_THREAD_POOL_HH_
