#include "metrics/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/json.hh"
#include "util/logging.hh"

namespace srsim {
namespace metrics {

std::atomic<bool> Registry::enabled_{false};

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
    SRSIM_ASSERT(!bounds_.empty(), "histogram needs bucket bounds");
    SRSIM_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must ascend");
    min_.store(std::numeric_limits<double>::infinity());
    max_.store(-std::numeric_limits<double>::infinity());
}

void
Histogram::add(double v)
{
    SRSIM_ASSERT(!std::isnan(v), "NaN histogram sample");
    if (parent_ != nullptr)
        parent_->add(v);
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const std::size_t i =
        static_cast<std::size_t>(it - bounds_.begin());
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // fetch_add on atomic<double> requires C++20 but not all
    // libstdc++ versions provide it lock-free; CAS is portable.
    double s = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(s, s + v,
                                       std::memory_order_relaxed)) {
    }
    {
        std::lock_guard<std::mutex> lock(extremaMu_);
        if (v < min_.load(std::memory_order_relaxed))
            min_.store(v, std::memory_order_relaxed);
        if (v > max_.load(std::memory_order_relaxed))
            max_.store(v, std::memory_order_relaxed);
    }
}

std::uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double
Histogram::min() const
{
    return min_.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return max_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    SRSIM_ASSERT(i < buckets_.size(), "bucket index out of range");
    return buckets_[i].load(std::memory_order_relaxed);
}

double
Histogram::percentile(double p) const
{
    SRSIM_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    const double target = p / 100.0 * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const std::uint64_t c = bucketCount(i);
        if (c == 0)
            continue;
        if (static_cast<double>(seen + c) >= target) {
            // Interpolate inside bucket i; clamp to the recorded
            // extrema so percentiles never leave [min, max].
            const double lo =
                i == 0 ? min() : bounds_[i - 1];
            const double hi = i < bounds_.size()
                                  ? bounds_[i]
                                  : max();
            const double frac =
                c == 0 ? 0.0
                       : (target - static_cast<double>(seen)) /
                             static_cast<double>(c);
            const double v =
                lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
            return std::clamp(v, min(), max());
        }
        seen += c;
    }
    return max();
}

std::vector<double>
Histogram::timeBucketsMs()
{
    std::vector<double> b;
    for (double v = 0.01; v <= 60000.0; v *= 2.0)
        b.push_back(v);
    return b;
}

std::vector<double>
Histogram::timeBucketsUs()
{
    std::vector<double> b;
    for (double v = 0.1; v <= 1e7; v *= 2.0)
        b.push_back(v);
    return b;
}

void
LinkTimeline::occupy(std::int32_t link, double start, double end)
{
    SRSIM_ASSERT(link >= 0, "negative link id");
    if (end <= start)
        return;
    if (parent_ != nullptr)
        parent_->occupy(link, start, end);
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t idx = static_cast<std::size_t>(link);
    if (idx >= busy_.size())
        busy_.resize(idx + 1, 0.0);
    busy_[idx] += end - start;
    horizon_ = std::max(horizon_, end);
}

std::size_t
LinkTimeline::numLinks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return busy_.size();
}

double
LinkTimeline::busyTime(std::int32_t link) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t idx = static_cast<std::size_t>(link);
    return idx < busy_.size() ? busy_[idx] : 0.0;
}

double
LinkTimeline::horizon() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return horizon_;
}

std::vector<double>
LinkTimeline::utilization(double horizon) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const double h = horizon > 0.0 ? horizon : horizon_;
    std::vector<double> out(busy_.size(), 0.0);
    if (h <= 0.0)
        return out;
    for (std::size_t i = 0; i < busy_.size(); ++i)
        out[i] = busy_[i] / h;
    return out;
}

void
Registry::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

// Child lookups resolve the parent metric OUTSIDE the child lock:
// lock order is strictly child -> parent (a parent never reaches
// into a child), so nested acquisition cannot deadlock.
Counter &
Registry::counter(const std::string &name)
{
    Counter *up =
        parent_ != nullptr ? &parent_->counter(name) : nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot) {
        slot = std::make_unique<Counter>();
        slot->parent_ = up;
    }
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    Gauge *up =
        parent_ != nullptr ? &parent_->gauge(name) : nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot) {
        slot = std::make_unique<Gauge>();
        slot->parent_ = up;
    }
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name,
                    std::vector<double> bounds)
{
    Histogram *up = parent_ != nullptr
                        ? &parent_->histogram(name, bounds)
                        : nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot) {
        slot = std::make_unique<Histogram>(std::move(bounds));
        slot->parent_ = up;
    }
    return *slot;
}

LinkTimeline &
Registry::timeline(const std::string &name)
{
    LinkTimeline *up =
        parent_ != nullptr ? &parent_->timeline(name) : nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = timelines_[name];
    if (!slot) {
        slot = std::make_unique<LinkTimeline>();
        slot->parent_ = up;
    }
    return *slot;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    timelines_.clear();
}

std::vector<std::pair<std::string, std::uint64_t>>
Registry::counterSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        out.emplace_back(name, c->value());
    return out;
}

void
Registry::exportJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    JsonWriter w(os);
    w.beginObject();

    w.key("counters").beginObject();
    for (const auto &[name, c] : counters_)
        w.kv(name, c->value());
    w.endObject();

    w.key("gauges").beginObject();
    for (const auto &[name, g] : gauges_)
        w.kv(name, g->value());
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[name, h] : histograms_) {
        w.key(name).beginObject();
        w.kv("count", h->count());
        if (h->count() > 0) {
            w.kv("min", h->min());
            w.kv("max", h->max());
            w.kv("mean", h->mean());
            w.kv("p50", h->percentile(50.0));
            w.kv("p95", h->percentile(95.0));
            w.kv("p99", h->percentile(99.0));
        }
        w.key("buckets").beginArray();
        for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
            if (h->bucketCount(i) == 0)
                continue; // sparse: skip empty buckets
            w.beginObject();
            w.kv("le", i < h->bounds().size()
                           ? h->bounds()[i]
                           : std::numeric_limits<double>::infinity());
            w.kv("count", h->bucketCount(i));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.key("timelines").beginObject();
    for (const auto &[name, t] : timelines_) {
        w.key(name).beginObject();
        w.kv("horizon_us", t->horizon());
        w.key("links").beginArray();
        const std::vector<double> util = t->utilization();
        for (std::size_t l = 0; l < util.size(); ++l) {
            w.beginObject();
            w.kv("link", l);
            w.kv("busy_us",
                 t->busyTime(static_cast<std::int32_t>(l)));
            w.kv("utilization", util[l]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.endObject();
    os << "\n";
}

} // namespace metrics
} // namespace srsim
