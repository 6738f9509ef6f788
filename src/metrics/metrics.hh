/**
 * @file
 * Named metrics registry: counters, gauges, fixed-bucket histograms
 * (p50/p95/p99), and a per-link utilization timeline.
 *
 * Where src/trace answers "what happened when", metrics answer "how
 * much / how long overall": restart-walk counts, compiler phase
 * times, wormhole block counts, and — the Fig. 5/6 picture from an
 * *actual run* rather than the compiler's estimate — the fraction of
 * the simulated horizon each link actually carried data.
 *
 * Like the tracer, the registry is disabled by default; every
 * instrumentation site checks `Registry::enabled()` (an inlined
 * relaxed atomic load), so the disabled path does no allocation, no
 * locking, and no map lookups. Counter/gauge/histogram updates are
 * atomic, hence thread-safe under the experiment sweeps, and
 * commutative, so totals are thread-count-independent.
 */

#ifndef SRSIM_METRICS_METRICS_HH_
#define SRSIM_METRICS_METRICS_HH_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace srsim {
namespace metrics {

/**
 * Monotonic event count. A counter created by a child registry
 * carries a pointer to the same-named counter of the parent and
 * writes through, so parent totals equal the sum over children plus
 * the parent's own direct bumps.
 */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
        if (parent_ != nullptr)
            parent_->add(n);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    std::atomic<std::uint64_t> v_{0};
    Counter *parent_ = nullptr;
};

/** Last-written value; child gauges write through to the parent. */
class Gauge
{
  public:
    void
    set(double v)
    {
        v_.store(v, std::memory_order_relaxed);
        if (parent_ != nullptr)
            parent_->set(v);
    }

    double
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    std::atomic<double> v_{0.0};
    Gauge *parent_ = nullptr;
};

/**
 * Fixed-bucket histogram. Bucket i counts samples v with
 * bounds[i-1] < v <= bounds[i]; one overflow bucket catches the
 * rest. Percentiles interpolate linearly inside the bucket.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void add(double v);

    std::uint64_t count() const;
    double sum() const;
    double mean() const;
    double min() const;
    double max() const;

    /** @param p percentile in [0, 100]. */
    double percentile(double p) const;

    const std::vector<double> &bounds() const { return bounds_; }
    std::uint64_t bucketCount(std::size_t i) const;

    /** Default bounds for millisecond phase timings (0.01ms..60s). */
    static std::vector<double> timeBucketsMs();
    /** Default bounds for microsecond sim durations. */
    static std::vector<double> timeBucketsUs();

  private:
    friend class Registry;
    std::vector<double> bounds_;
    /** bounds_.size() + 1 buckets (last = overflow). */
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
    mutable std::mutex extremaMu_;
    Histogram *parent_ = nullptr;
};

/**
 * Per-link busy-time accumulator: the measured counterpart of the
 * compiler's spot-utilization estimate. occupy() adds one window of
 * actual data flow on a link; utilization() divides each link's busy
 * time by the observed horizon (or an explicit one).
 */
class LinkTimeline
{
  public:
    /** Record [start, end) of data flow on link l. */
    void occupy(std::int32_t link, double start, double end);

    std::size_t numLinks() const;
    double busyTime(std::int32_t link) const;
    /** Latest window end observed. */
    double horizon() const;

    /**
     * Busy fraction per link over `horizon` (defaults to the
     * observed horizon when <= 0).
     */
    std::vector<double> utilization(double horizon = 0.0) const;

  private:
    friend class Registry;
    mutable std::mutex mu_;
    std::vector<double> busy_;
    double horizon_ = 0.0;
    LinkTimeline *parent_ = nullptr;
};

/**
 * Named registry. Every engine context owns one (DESIGN.md §14); a
 * root's is standalone, and per-tenant isolation constructs child
 * registries parented to it. A child's metrics write through to the
 * same-named parent metric, so aggregates stay exact while each
 * child exposes only its own activity. A parent must outlive — and
 * must not be clear()ed under — its live children.
 */
class Registry
{
  public:
    /** A standalone (parent == nullptr) or child registry. */
    explicit Registry(Registry *parent = nullptr)
        : parent_(parent)
    {
    }

    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    static void setEnabled(bool on);

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds);
    LinkTimeline &timeline(const std::string &name);

    /** Remove every registered metric. */
    void clear();

    /** Name-sorted snapshot of every counter's value. */
    std::vector<std::pair<std::string, std::uint64_t>>
    counterSnapshot() const;

    /**
     * One JSON document: counters, gauges, histograms (with
     * p50/p95/p99 and buckets), and per-link utilization per
     * timeline — all sorted by name for deterministic output.
     */
    void exportJson(std::ostream &os) const;

  private:
    static std::atomic<bool> enabled_;

    Registry *parent_ = nullptr;
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::unique_ptr<LinkTimeline>> timelines_;
};

} // namespace metrics
} // namespace srsim

#define SRSIM_METRICS_ENABLED() (::srsim::metrics::Registry::enabled())

/** Statement guard: runs stmt only when metrics are enabled. */
#define SRSIM_METRICS_IF(stmt)                                        \
    do {                                                              \
        if (SRSIM_METRICS_ENABLED()) {                                \
            stmt;                                                     \
        }                                                             \
    } while (0)

#endif // SRSIM_METRICS_METRICS_HH_
