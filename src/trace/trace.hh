/**
 * @file
 * Structured event tracing for srsim.
 *
 * The paper's whole argument is temporal — *when* a link is busy,
 * *when* a wormhole message blocks, *when* an output emerges — yet
 * end-of-run statistics flatten all of it. The tracer records typed
 * events against named tracks (one per link, per CP, per AP, plus a
 * simulation track and a compiler track) and exports them as Chrome
 * trace-event JSON (loadable in about:tracing / Perfetto) or flat
 * CSV, so a schedule or a wormhole run can be *seen*.
 *
 * Event taxonomy (DESIGN.md §8):
 *   - link acquire / release / blocked      (WR capture model)
 *   - link occupancy window                 (SR scheduled windows)
 *   - crossbar command execute              (CP switching schedules)
 *   - message window start / end
 *   - task start / finish                   (AP activity)
 *   - invocation complete
 *   - invariant violation / deadlock        (full context attached)
 *   - compiler phase enter / exit           (wall-clock)
 *
 * Disabled-path guarantee: tracing is off by default and every
 * instrumentation site is wrapped in `SRSIM_TRACE_ENABLED()`, an
 * inlined relaxed load of one atomic flag (or compiled out entirely
 * with -DSRSIM_TRACE_OFF). With tracing off, instrumented code paths
 * perform no allocation, no locking, and no I/O, and all simulator /
 * compiler outputs are byte-identical to the uninstrumented code
 * (pinned by tests/test_property_compile.cc and tests/test_trace.cc).
 *
 * Threading: events land in per-thread buffers (registered with the
 * tracer on first use, no locking on the record path after that) and
 * are merged at export time by a deterministic sort on
 * (timestamp, track, per-thread sequence). Every srsim track has a
 * single producer — a link/CP/AP track is written only by the thread
 * running that simulation, a compiler phase by the compiling thread —
 * so per-track order is exact program order.
 */

#ifndef SRSIM_TRACE_TRACE_HH_
#define SRSIM_TRACE_TRACE_HH_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace srsim {

namespace metrics {
class Registry;
} // namespace metrics

namespace trace {

/** What a track represents; becomes a Chrome "process". */
enum class TrackKind : std::uint8_t
{
    Link = 0,     ///< one half-duplex channel (tid = link id)
    Cp,           ///< one communication processor (tid = node id)
    Ap,           ///< one application processor (tid = node id)
    Msg,          ///< one TFG message (tid = message id)
    Sim,          ///< run-level events (invocations, violations)
    Compiler,     ///< SR compiler phases (wall-clock timestamps)
};

/** @return stable human-readable track-kind name. */
const char *trackKindName(TrackKind k);

/** Chrome trace-event phase of one event. */
enum class EventType : std::uint8_t
{
    Begin = 0,    ///< duration start ("B")
    End,          ///< duration end ("E")
    Complete,     ///< self-contained span ("X", carries dur)
    Instant,      ///< point event ("i")
};

/** @return the Chrome "ph" letter for an event type. */
char eventTypeChar(EventType t);

/** One recorded event. */
struct Event
{
    EventType type = EventType::Instant;
    TrackKind track = TrackKind::Sim;
    std::int32_t trackId = 0;
    /** Stable category slug ("link", "xbar", "task", ...). */
    const char *category = "";
    std::string name;
    /** Timestamp in microseconds (sim time; wall time on Compiler). */
    double ts = 0.0;
    /** Span length for Complete events. */
    double dur = 0.0;
    /** Message id context, -1 when not applicable. */
    std::int32_t msg = -1;
    /** Invocation context, -1 when not applicable. */
    std::int32_t invocation = -1;
    /** Free-form extra context (violation text, cycle report). */
    std::string detail;
    /** Per-thread record order, assigned by the tracer. */
    std::uint64_t seq = 0;
};

/**
 * Event sink. All methods are thread-safe; record() is lock-free
 * after a thread's first event on a given tracer. Each root engine
 * context owns one (children share their root's); each tracer keeps
 * its own per-thread buffers — two tracers never share a buffer.
 */
class Tracer
{
  public:
    Tracer();

    /** Fast inlined guard used by every instrumentation site. */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Turn the sink on/off (off discards nothing already buffered). */
    static void setEnabled(bool on);

    /** Drop all buffered events. */
    void clear();

    /** Append one event to the calling thread's buffer. */
    void record(Event e);

    /** Buffered event count across all threads. */
    std::size_t size() const;

    /**
     * All events merged in deterministic order:
     * (ts, track kind, track id, per-thread seq, type, name).
     */
    std::vector<Event> collect() const;

    /** Chrome trace-event JSON (about:tracing / Perfetto). */
    void exportChrome(std::ostream &os) const;

    /** Flat CSV, one event per row. */
    void exportCsv(std::ostream &os) const;

    /** Wall-clock microseconds since the process anchor. */
    static double nowWallUs();

  private:
    struct Buffer
    {
        std::vector<Event> events;
        std::uint64_t nextSeq = 0;
    };

    Buffer &threadBuffer();

    static std::atomic<bool> enabled_;

    /** Distinguishes this tracer's thread-local buffers. */
    const std::uint64_t id_;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/**
 * RAII compiler-phase span: Begin on construction, End on
 * destruction, both on the Compiler track with wall-clock
 * timestamps; the elapsed milliseconds also feed the metrics
 * histogram "sr.phase_ms.<name>" when metrics are enabled.
 * Free when both tracing and metrics are off.
 */
class ScopedPhase
{
  public:
    /**
     * Record against an explicit sink and registry — callers reach
     * both through their engine context (EngineContext::tracer() /
     * metricsRegistry()).
     */
    ScopedPhase(const char *name, Tracer &tracer,
                metrics::Registry &registry);
    ~ScopedPhase();

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    const char *name_;
    Tracer *tracer_;
    metrics::Registry *registry_;
    double startUs_ = 0.0;
    bool active_ = false;
};

// --- Typed recording helpers (no-ops when tracing is off) ---------
// All take the destination tracer explicitly; callers route through
// their engine context.

void linkAcquire(Tracer &t, std::int32_t link,
                 const std::string &msgName, std::int32_t msg,
                 std::int32_t inv, double ts);
void linkRelease(Tracer &t, std::int32_t link, std::int32_t msg,
                 std::int32_t inv, double ts);
void linkBlocked(Tracer &t, std::int32_t link,
                 const std::string &msgName, std::int32_t msg,
                 std::int32_t inv, double ts);
/** SR scheduled occupancy: a whole window, duration known upfront. */
void linkOccupy(Tracer &t, std::int32_t link,
                const std::string &msgName, std::int32_t msg,
                std::int32_t inv, double ts, double dur);
void xbarExecute(Tracer &t, std::int32_t node,
                 const std::string &msgName, std::int32_t msg,
                 std::int32_t inv, double ts, double dur);
void msgWindowBegin(Tracer &t, std::int32_t msg,
                    const std::string &msgName, std::int32_t inv,
                    double ts);
void msgWindowEnd(Tracer &t, std::int32_t msg, std::int32_t inv,
                  double ts);
/** Scheduled message window, duration known upfront (SR). */
void msgWindowSpan(Tracer &t, std::int32_t msg,
                   const std::string &msgName, std::int32_t inv,
                   double ts, double dur);
void taskBegin(Tracer &t, std::int32_t node,
               const std::string &taskName, std::int32_t inv,
               double ts);
void taskEnd(Tracer &t, std::int32_t node, std::int32_t inv,
             double ts);
void taskSpan(Tracer &t, std::int32_t node,
              const std::string &taskName, std::int32_t inv,
              double ts, double dur);
void invocationComplete(Tracer &t, std::int32_t inv, double ts);
void violation(Tracer &t, const std::string &what, double ts);
/** Injected fault taking effect (link death, schedule swap, drop). */
void faultEvent(Tracer &t, const std::string &what, double ts);
/**
 * Online scheduling service request (admit/remove/period/fault)
 * being processed or a new schedule being published.
 */
void onlineRequest(Tracer &t, const std::string &what, double ts);
void deadlock(Tracer &t, const std::string &cycle, double ts);

} // namespace trace
} // namespace srsim

/**
 * Statement guard: `SRSIM_TRACE_IF(stmt);` executes stmt only when
 * tracing is enabled; compiles to nothing with -DSRSIM_TRACE_OFF.
 */
#ifdef SRSIM_TRACE_OFF
#define SRSIM_TRACE_ENABLED() (false)
#else
#define SRSIM_TRACE_ENABLED() (::srsim::trace::Tracer::enabled())
#endif

#define SRSIM_TRACE_IF(stmt)                                          \
    do {                                                              \
        if (SRSIM_TRACE_ENABLED()) {                                  \
            stmt;                                                     \
        }                                                             \
    } while (0)

#endif // SRSIM_TRACE_TRACE_HH_
