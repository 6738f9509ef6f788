#include "util/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/logging.hh"

namespace srsim {

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads < 1 ? 1 : threads)
{
    workers_.reserve(size_ - 1);
    try {
        for (std::size_t i = 0; i + 1 < size_; ++i)
            workers_.emplace_back([this]() { workerLoop(); });
    } catch (...) {
        // The host refused a thread (std::system_error): join the
        // ones already started, or destroying them would terminate.
        stopWorkers();
        throw;
    }
}

ThreadPool::~ThreadPool() { stopWorkers(); }

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk,
                     [this]() { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

namespace {

/**
 * Shared state of one parallelFor(). Held by shared_ptr: runner
 * tasks that only get scheduled after the loop has already finished
 * (every index claimed by other threads) find no work and must not
 * touch a dead frame.
 */
struct ForLoopState
{
    explicit ForLoopState(std::size_t n_,
                          const std::function<void(std::size_t)> &b)
        : n(n_), body(b)
    {}

    const std::size_t n;
    const std::function<void(std::size_t)> &body;
    std::atomic<std::size_t> next{0};

    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t done = 0;
    bool finished = false; // set once done == n; body is dead after
    std::exception_ptr error;
    std::size_t errorIndex = SIZE_MAX;

    /** Claim and run indices until none remain. */
    void
    run()
    {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            std::exception_ptr eptr;
            try {
                body(i);
            } catch (...) {
                eptr = std::current_exception();
            }
            std::lock_guard<std::mutex> lk(mu);
            if (eptr && i < errorIndex) {
                errorIndex = i;
                error = eptr;
            }
            if (++done == n) {
                finished = true;
                done_cv.notify_all();
            }
        }
    }
};

} // namespace

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (workers_.empty() || n == 1) {
        // Serial fallback: index order on the calling thread. The
        // exception contract matches the parallel path (lowest
        // throwing index wins; later indices still run).
        std::exception_ptr error;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                body(i);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }

    auto state = std::make_shared<ForLoopState>(n, body);
    const std::size_t helpers =
        std::min(workers_.size(), n - 1);
    for (std::size_t h = 0; h < helpers; ++h) {
        // Safe after the loop completes: a late runner sees
        // next >= n, never reads `body`, and drops its reference.
        enqueue([state]() { state->run(); });
    }
    state->run(); // the caller participates

    std::unique_lock<std::mutex> lk(state->mu);
    state->done_cv.wait(lk, [&]() { return state->finished; });
    if (state->error)
        std::rethrow_exception(state->error);
}

namespace {

std::unique_ptr<ThreadPool> &
globalHolder()
{
    static std::unique_ptr<ThreadPool> pool =
        std::make_unique<ThreadPool>(ThreadPool::configuredSize());
    return pool;
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    return *globalHolder();
}

void
ThreadPool::setGlobalSize(std::size_t threads)
{
    globalHolder() = std::make_unique<ThreadPool>(threads);
}

std::size_t
ThreadPool::configuredSize()
{
    const char *env = std::getenv("SRSIM_THREADS");
    if (env && *env) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v >= 1)
            return static_cast<std::size_t>(v);
        warn("ignoring invalid SRSIM_THREADS='", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace srsim
