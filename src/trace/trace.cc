#include "trace/trace.hh"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <unordered_map>

#include "metrics/metrics.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace srsim {
namespace trace {

std::atomic<bool> Tracer::enabled_{false};

namespace {
std::atomic<std::uint64_t> g_nextTracerId{0};
} // namespace

Tracer::Tracer()
    : id_(g_nextTracerId.fetch_add(1, std::memory_order_relaxed))
{
}

const char *
trackKindName(TrackKind k)
{
    switch (k) {
      case TrackKind::Link: return "links";
      case TrackKind::Cp: return "cps";
      case TrackKind::Ap: return "aps";
      case TrackKind::Msg: return "messages";
      case TrackKind::Sim: return "sim";
      case TrackKind::Compiler: return "compiler";
    }
    return "unknown";
}

char
eventTypeChar(EventType t)
{
    switch (t) {
      case EventType::Begin: return 'B';
      case EventType::End: return 'E';
      case EventType::Complete: return 'X';
      case EventType::Instant: return 'i';
    }
    return '?';
}

void
Tracer::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

Tracer::Buffer &
Tracer::threadBuffer()
{
    // Keyed by tracer id: distinct tracers (per-context sinks) must
    // never share one thread's buffer. The tracer owns its buffers,
    // so a dead tracer's events go with it; ids are not recycled, so
    // a stale entry for a dead tracer can never be resolved again.
    thread_local std::unordered_map<std::uint64_t, Buffer *> bufs;
    Buffer *&buf = bufs[id_];
    if (buf == nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buf = buffers_.back().get();
    }
    return *buf;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &b : buffers_) {
        b->events.clear();
        b->nextSeq = 0;
    }
}

void
Tracer::record(Event e)
{
    Buffer &b = threadBuffer();
    e.seq = b.nextSeq++;
    b.events.push_back(std::move(e));
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &b : buffers_)
        n += b->events.size();
    return n;
}

std::vector<Event>
Tracer::collect() const
{
    std::vector<Event> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &b : buffers_)
            out.insert(out.end(), b->events.begin(),
                       b->events.end());
    }
    std::stable_sort(
        out.begin(), out.end(),
        [](const Event &a, const Event &b) {
            return std::tie(a.ts, a.track, a.trackId, a.seq, a.type,
                            a.name) < std::tie(b.ts, b.track,
                                               b.trackId, b.seq,
                                               b.type, b.name);
        });
    return out;
}

namespace {

int
chromePid(TrackKind k)
{
    return static_cast<int>(k) + 1;
}

std::string
trackLabel(TrackKind k, std::int32_t id)
{
    switch (k) {
      case TrackKind::Link: return "link " + std::to_string(id);
      case TrackKind::Cp: return "cp " + std::to_string(id);
      case TrackKind::Ap: return "ap " + std::to_string(id);
      case TrackKind::Msg: return "msg " + std::to_string(id);
      case TrackKind::Sim: return "sim";
      case TrackKind::Compiler: return "compiler";
    }
    return "?";
}

void
writeArgs(JsonWriter &w, const Event &e)
{
    w.key("args").beginObject();
    if (e.msg >= 0)
        w.kv("msg", static_cast<int>(e.msg));
    if (e.invocation >= 0)
        w.kv("inv", static_cast<int>(e.invocation));
    if (!e.detail.empty())
        w.kv("detail", e.detail);
    w.endObject();
}

} // namespace

void
Tracer::exportChrome(std::ostream &os) const
{
    const std::vector<Event> events = collect();

    JsonWriter w(os);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();

    // Metadata: one Chrome process per track kind, one thread per
    // track, emitted for every track that carries events, in
    // deterministic (kind, id) order.
    std::vector<std::pair<TrackKind, std::int32_t>> tracks;
    for (const Event &e : events)
        tracks.emplace_back(e.track, e.trackId);
    std::sort(tracks.begin(), tracks.end());
    tracks.erase(std::unique(tracks.begin(), tracks.end()),
                 tracks.end());

    std::uint8_t seenKind = 0xFF;
    for (const auto &[kind, id] : tracks) {
        if (static_cast<std::uint8_t>(kind) != seenKind) {
            seenKind = static_cast<std::uint8_t>(kind);
            w.beginObject();
            w.kv("name", "process_name");
            w.kv("ph", "M");
            w.kv("pid", chromePid(kind));
            w.key("args").beginObject();
            w.kv("name", trackKindName(kind));
            w.endObject();
            w.endObject();
        }
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", chromePid(kind));
        w.kv("tid", static_cast<int>(id));
        w.key("args").beginObject();
        w.kv("name", trackLabel(kind, id));
        w.endObject();
        w.endObject();
    }

    for (const Event &e : events) {
        w.beginObject();
        w.kv("name", e.name);
        w.kv("cat", std::string(e.category));
        w.kv("ph", std::string(1, eventTypeChar(e.type)));
        w.kv("ts", e.ts);
        if (e.type == EventType::Complete)
            w.kv("dur", e.dur);
        if (e.type == EventType::Instant)
            w.kv("s", "t"); // thread-scoped instant
        w.kv("pid", chromePid(e.track));
        w.kv("tid", static_cast<int>(e.trackId));
        writeArgs(w, e);
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << "\n";
}

void
Tracer::exportCsv(std::ostream &os) const
{
    os << "ts,dur,type,track,track_id,category,name,msg,"
          "invocation,detail\n";
    for (const Event &e : collect()) {
        std::string detail = e.detail;
        for (char &c : detail)
            if (c == ',' || c == '\n')
                c = ';';
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g,%.12g", e.ts, e.dur);
        os << buf << ',' << eventTypeChar(e.type) << ','
           << trackKindName(e.track) << ',' << e.trackId << ','
           << e.category << ',' << e.name << ',' << e.msg << ','
           << e.invocation << ',' << detail << "\n";
    }
}

double
Tracer::nowWallUs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point anchor = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() -
                                                     anchor)
        .count();
}

ScopedPhase::ScopedPhase(const char *name, Tracer &tracer,
                         metrics::Registry &registry)
    : name_(name), tracer_(&tracer), registry_(&registry)
{
    active_ = SRSIM_TRACE_ENABLED() ||
              metrics::Registry::enabled();
    if (!active_)
        return;
    startUs_ = Tracer::nowWallUs();
    if (SRSIM_TRACE_ENABLED()) {
        Event e;
        e.type = EventType::Begin;
        e.track = TrackKind::Compiler;
        e.category = "phase";
        e.name = name_;
        e.ts = startUs_;
        tracer_->record(std::move(e));
    }
}

ScopedPhase::~ScopedPhase()
{
    if (!active_)
        return;
    const double endUs = Tracer::nowWallUs();
    if (SRSIM_TRACE_ENABLED()) {
        Event e;
        e.type = EventType::End;
        e.track = TrackKind::Compiler;
        e.category = "phase";
        e.name = name_;
        e.ts = std::max(endUs, startUs_);
        tracer_->record(std::move(e));
    }
    if (metrics::Registry::enabled()) {
        registry_
            ->histogram(std::string("sr.phase_ms.") + name_,
                        metrics::Histogram::timeBucketsMs())
            .add((endUs - startUs_) / 1000.0);
    }
}

namespace {

void
emit(Tracer &t, EventType type, TrackKind track,
     std::int32_t trackId, const char *category, std::string name,
     double ts, double dur, std::int32_t msg, std::int32_t inv,
     std::string detail = {})
{
    Event e;
    e.type = type;
    e.track = track;
    e.trackId = trackId;
    e.category = category;
    e.name = std::move(name);
    e.ts = ts;
    e.dur = dur;
    e.msg = msg;
    e.invocation = inv;
    e.detail = std::move(detail);
    t.record(std::move(e));
}

} // namespace

void
linkAcquire(Tracer &t, std::int32_t link, const std::string &msgName,
            std::int32_t msg, std::int32_t inv, double ts)
{
    emit(t, EventType::Begin, TrackKind::Link, link, "link", msgName,
         ts, 0.0, msg, inv);
}

void
linkRelease(Tracer &t, std::int32_t link, std::int32_t msg,
            std::int32_t inv, double ts)
{
    emit(t, EventType::End, TrackKind::Link, link, "link", {}, ts,
         0.0, msg, inv);
}

void
linkBlocked(Tracer &t, std::int32_t link, const std::string &msgName,
            std::int32_t msg, std::int32_t inv, double ts)
{
    emit(t, EventType::Instant, TrackKind::Link, link, "blocked",
         "blocked: " + msgName, ts, 0.0, msg, inv);
}

void
linkOccupy(Tracer &t, std::int32_t link, const std::string &msgName,
           std::int32_t msg, std::int32_t inv, double ts, double dur)
{
    emit(t, EventType::Complete, TrackKind::Link, link, "link",
         msgName, ts, dur, msg, inv);
}

void
xbarExecute(Tracer &t, std::int32_t node, const std::string &msgName,
            std::int32_t msg, std::int32_t inv, double ts,
            double dur)
{
    emit(t, EventType::Complete, TrackKind::Cp, node, "xbar",
         msgName, ts, dur, msg, inv);
}

void
msgWindowBegin(Tracer &t, std::int32_t msg,
               const std::string &msgName, std::int32_t inv,
               double ts)
{
    emit(t, EventType::Begin, TrackKind::Msg, msg, "window", msgName,
         ts, 0.0, msg, inv);
}

void
msgWindowEnd(Tracer &t, std::int32_t msg, std::int32_t inv,
             double ts)
{
    emit(t, EventType::End, TrackKind::Msg, msg, "window", {}, ts,
         0.0, msg, inv);
}

void
msgWindowSpan(Tracer &t, std::int32_t msg, const std::string &msgName,
              std::int32_t inv, double ts, double dur)
{
    emit(t, EventType::Complete, TrackKind::Msg, msg, "window",
         msgName, ts, dur, msg, inv);
}

void
taskBegin(Tracer &t, std::int32_t node, const std::string &taskName,
          std::int32_t inv, double ts)
{
    emit(t, EventType::Begin, TrackKind::Ap, node, "task", taskName,
         ts, 0.0, -1, inv);
}

void
taskEnd(Tracer &t, std::int32_t node, std::int32_t inv, double ts)
{
    emit(t, EventType::End, TrackKind::Ap, node, "task", {}, ts, 0.0,
         -1, inv);
}

void
taskSpan(Tracer &t, std::int32_t node, const std::string &taskName,
         std::int32_t inv, double ts, double dur)
{
    emit(t, EventType::Complete, TrackKind::Ap, node, "task",
         taskName, ts, dur, -1, inv);
}

void
invocationComplete(Tracer &t, std::int32_t inv, double ts)
{
    emit(t, EventType::Instant, TrackKind::Sim, 0, "invocation",
         "invocation complete", ts, 0.0, -1, inv);
}

void
violation(Tracer &t, const std::string &what, double ts)
{
    emit(t, EventType::Instant, TrackKind::Sim, 0, "violation",
         "invariant violation", ts, 0.0, -1, -1, what);
}

void
faultEvent(Tracer &t, const std::string &what, double ts)
{
    emit(t, EventType::Instant, TrackKind::Sim, 0, "fault", "fault",
         ts, 0.0, -1, -1, what);
}

void
onlineRequest(Tracer &t, const std::string &what, double ts)
{
    emit(t, EventType::Instant, TrackKind::Compiler, 0, "online",
         "online request", ts, 0.0, -1, -1, what);
}

void
deadlock(Tracer &t, const std::string &cycle, double ts)
{
    emit(t, EventType::Instant, TrackKind::Sim, 0, "deadlock",
         "deadlock", ts, 0.0, -1, -1, cycle);
}

} // namespace trace
} // namespace srsim
