#include "engine/context.hh"

#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace srsim {
namespace engine {

EngineContext::EngineContext()
    : ownedRegistry_(std::make_unique<metrics::Registry>()),
      ownedTracer_(std::make_unique<trace::Tracer>())
{
}

EngineContext::EngineContext(const EngineContext &parent,
                             const ChildOptions &opts)
    : parent_(&parent),
      ownedRegistry_(std::make_unique<metrics::Registry>(
          &parent.metricsRegistry())),
      baseSeed_(opts.baseSeed != 0 ? opts.baseSeed : parent.baseSeed_),
      name_(opts.name)
{
    if (opts.threads > 0)
        ownedPool_ = std::make_unique<ThreadPool>(opts.threads);
}

EngineContext::~EngineContext() = default;

metrics::Registry &
EngineContext::metricsRegistry() const
{
    return *ownedRegistry_;
}

trace::Tracer &
EngineContext::tracer() const
{
    return ownedTracer_ ? *ownedTracer_ : parent_->tracer();
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
    return std::shared_ptr<EngineContext>(
        new EngineContext(*this, opts));
}

const EngineContext &
require(const EngineContext *ctx, const char *entry)
{
    if (ctx == nullptr)
        panic(entry, ": no engine context (every entry point needs "
                     "one; build a root EngineContext)");
    return *ctx;
}

} // namespace engine
} // namespace srsim
