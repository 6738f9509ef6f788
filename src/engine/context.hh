/**
 * @file
 * The engine context: one explicit bundle of the cross-cutting
 * services every compile/simulate/serve path needs — metrics
 * registry, trace sink, thread pool, and seed policy.
 *
 * Callers receive their services through an `EngineContext` threaded
 * down the call stack; there is no ambient registry or tracer to
 * fall back on. The daemon gives each session a *child* context
 * whose registry writes through to the parent (aggregates stay
 * exact) while exposing only that session's activity.
 *
 * Ownership rules (DESIGN.md §14):
 *
 *  - a *root* context (default-constructed) owns its registry and
 *    its tracer; it runs on the process-wide ThreadPool::global()
 *    (the cores are process-wide) and starts no threads of its own;
 *  - a *child* context always owns its registry (parented for
 *    write-through), shares its parent's tracer, and shares the
 *    parent's pool unless given a private thread budget;
 *  - a parent context must outlive its children;
 *  - every engine entry point requires a context: a null one is a
 *    caller bug and panics (require()).
 *
 * Environment policy: SRSIM_THREADS is parsed once, when the shared
 * pool is first built; the CLI entry layer may resize that pool
 * (ThreadPool::setGlobalSize) before any engine work starts.
 */

#ifndef SRSIM_ENGINE_CONTEXT_HH_
#define SRSIM_ENGINE_CONTEXT_HH_

#include <cstdint>
#include <memory>
#include <string>

#include "solver/lp.hh"

namespace srsim {

class ThreadPool;

namespace metrics {
class Registry;
} // namespace metrics

namespace trace {
class Tracer;
} // namespace trace

namespace engine {

/** Per-child overrides for EngineContext::createChild(). */
struct ChildOptions
{
    /** Diagnostic name ("session.alpha"); also the metrics scope. */
    std::string name;
    /**
     * Private thread budget: > 0 gives the child its own pool of
     * exactly that size; 0 shares the parent's pool.
     */
    std::size_t threads = 0;
    /** Base seed for derived RNG streams; 0 inherits the parent's. */
    std::uint64_t baseSeed = 0;
};

/** The service bundle. Immutable after construction. */
class EngineContext
{
  public:
    /** A root context owning a fresh registry and tracer. */
    EngineContext();

    ~EngineContext();
    EngineContext(const EngineContext &) = delete;
    EngineContext &operator=(const EngineContext &) = delete;

    metrics::Registry &metricsRegistry() const;
    trace::Tracer &tracer() const;
    ThreadPool &pool() const;

    std::uint64_t baseSeed() const { return baseSeed_; }
    const std::string &name() const { return name_; }

    /**
     * A deterministic per-stream seed: the same (baseSeed, stream)
     * always yields the same value, and distinct streams decorrelate.
     */
    std::uint64_t deriveSeed(std::uint64_t stream) const;

    /**
     * lp::SolveOptions with this context's metrics registry
     * pre-filled — the standard way LP call sites start.
     */
    lp::SolveOptions solveOptions() const;

    /**
     * Create a child context per the override rules above. The
     * returned context keeps a raw pointer to this parent; the
     * caller guarantees the parent outlives it.
     */
    std::shared_ptr<EngineContext>
    createChild(const ChildOptions &opts) const;

  private:
    EngineContext(const EngineContext &parent,
                  const ChildOptions &opts);

    /** Parent for tracer / pool resolution; null for a root. */
    const EngineContext *parent_ = nullptr;

    /** Always owned (a child's is parented for write-through). */
    std::unique_ptr<metrics::Registry> ownedRegistry_;
    /** Owned by roots; children resolve their parent's. */
    std::unique_ptr<trace::Tracer> ownedTracer_;
    /** A child's private thread budget; null shares upward. */
    std::unique_ptr<ThreadPool> ownedPool_;

    std::uint64_t baseSeed_ = 12345;
    std::string name_;
};

/**
 * `*ctx`, for the engine entry points: a null context is a caller
 * bug, never a request for some default, so it panics naming the
 * entry point.
 */
const EngineContext &require(const EngineContext *ctx,
                             const char *entry);

} // namespace engine
} // namespace srsim

#endif // SRSIM_ENGINE_CONTEXT_HH_
