#include "engine/context.hh"

#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace engine {

EngineContext::~EngineContext() = default;

EngineContext &
EngineContext::processDefault()
{
    static EngineContext &ctx = []() -> EngineContext & {
        static EngineContext c;
        c.name_ = "process";
        return c;
    }();
    return ctx;
}

void
EngineContext::configureProcess(std::optional<std::size_t> threads)
{
    if (threads)
        ThreadPool::setGlobalSize(*threads);
}

metrics::Registry &
EngineContext::metricsRegistry() const
{
    if (ownedRegistry_)
        return *ownedRegistry_;
    if (parent_ != nullptr)
        return parent_->metricsRegistry();
    return metrics::Registry::global();
}

trace::Tracer &
EngineContext::tracer() const
{
    if (ownedTracer_)
        return *ownedTracer_;
    if (parent_ != nullptr)
        return parent_->tracer();
    return trace::Tracer::instance();
}

ThreadPool &
EngineContext::pool() const
{
    if (ownedPool_)
        return *ownedPool_;
    if (parent_ != nullptr)
        return parent_->pool();
    return ThreadPool::global();
}

std::uint64_t
EngineContext::deriveSeed(std::uint64_t stream) const
{
    // splitmix64 finalizer over (base, stream): deterministic,
    // well-mixed, and stable across platforms.
    std::uint64_t z =
        baseSeed_ + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

lp::SolveOptions
EngineContext::solveOptions() const
{
    lp::SolveOptions opts;
    opts.registry = &metricsRegistry();
    return opts;
}

std::shared_ptr<EngineContext>
EngineContext::createChild(const ChildOptions &opts) const
{
    auto child = std::make_shared<EngineContext>();
    child->parent_ = this;
    child->name_ = opts.name;
    child->ownedRegistry_ =
        std::make_unique<metrics::Registry>(&metricsRegistry());
    if (opts.threads > 0)
        child->ownedPool_ =
            std::make_unique<ThreadPool>(opts.threads);
    child->baseSeed_ =
        opts.baseSeed != 0 ? opts.baseSeed : baseSeed_;
    return child;
}

} // namespace engine
} // namespace srsim
