#include "fault/fault.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/logging.hh"
#include "util/parse.hh"
#include "util/rng.hh"

namespace srsim {
namespace fault {
namespace {

/** Split on ';' and ',' with whitespace trimming. */
std::vector<std::string>
splitEvents(const std::string &spec)
{
    std::vector<std::string> out;
    std::string cur;
    for (char ch : spec) {
        if (ch == ';' || ch == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(ch))) {
            cur += ch;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** Strict finite non-negative number; FatalError with context. */
double
parseNumber(const std::string &s, const std::string &what,
            const std::string &event)
{
    double v = 0.0;
    if (!parseFinite(s, &v))
        fatal("fault spec: bad ", what, " '", s, "' in event '",
              event, "'");
    if (v < 0.0)
        fatal("fault spec: negative ", what, " in event '", event,
              "'");
    return v;
}

/** Strict whole number in [0, hi]; FatalError with context. */
std::uint64_t
parseWhole(const std::string &s, std::uint64_t hi,
           const std::string &what, const std::string &event)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(s, 0, hi, &v))
        fatal("fault spec: bad ", what, " '", s, "' in event '", event,
              "' (expected a whole number in [0, ", hi, "])");
    return v;
}

/** A link, node or count: a whole number in [0, INT_MAX]. */
int
parseIndex(const std::string &s, const std::string &what,
           const std::string &event)
{
    return static_cast<int>(parseWhole(s, INT_MAX, what, event));
}

/** Parse "A-B" or "#I" into (a, b) endpoints or an explicit id. */
void
parseLinkRef(const std::string &s, const std::string &event,
             FaultEvent &ev)
{
    if (!s.empty() && s[0] == '#') {
        ev.link = parseIndex(s.substr(1), "link id", event);
        return;
    }
    const std::size_t dash = s.find('-');
    if (dash == std::string::npos)
        fatal("fault spec: expected 'A-B' or '#I' link reference, "
              "got '", s, "' in event '", event, "'");
    ev.a = parseIndex(s.substr(0, dash), "node id", event);
    ev.b = parseIndex(s.substr(dash + 1), "node id", event);
}

FaultEvent
parseEvent(const std::string &text)
{
    FaultEvent ev;
    std::string body = text;

    const std::size_t atPos = body.rfind('@');
    if (atPos != std::string::npos) {
        ev.at = parseNumber(body.substr(atPos + 1), "time", text);
        body = body.substr(0, atPos);
    }

    const std::size_t colon = body.find(':');
    if (colon == std::string::npos)
        fatal("fault spec: event '", text,
              "' has no 'kind:' prefix");
    const std::string kind = body.substr(0, colon);
    const std::string arg = body.substr(colon + 1);

    if (kind == "link") {
        ev.kind = FaultEvent::Kind::LinkFail;
        parseLinkRef(arg, text, ev);
    } else if (kind == "node") {
        ev.kind = FaultEvent::Kind::NodeFail;
        ev.node = parseIndex(arg, "node id", text);
    } else if (kind == "derate") {
        ev.kind = FaultEvent::Kind::LinkDerate;
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos)
            fatal("fault spec: derate event '", text,
                  "' missing '=F' factor");
        parseLinkRef(arg.substr(0, eq), text, ev);
        ev.factor = parseNumber(arg.substr(eq + 1), "factor", text);
        if (ev.factor <= 0.0 || ev.factor > 1.0)
            fatal("fault spec: derate factor ", ev.factor,
                  " outside (0,1] in event '", text, "'");
    } else if (kind == "rand") {
        ev.kind = FaultEvent::Kind::RandLinks;
        const std::size_t sep = arg.find(':');
        if (sep == std::string::npos)
            fatal("fault spec: rand event '", text,
                  "' must be 'rand:K:S'");
        ev.count = parseIndex(arg.substr(0, sep), "count", text);
        ev.seed =
            parseWhole(arg.substr(sep + 1), UINT64_MAX, "seed", text);
        if (ev.count <= 0)
            fatal("fault spec: rand count must be positive in "
                  "event '", text, "'");
    } else {
        fatal("fault spec: unknown event kind '", kind, "' in '",
              text, "'");
    }
    return ev;
}

LinkId
resolveLinkRef(const FaultEvent &ev, const Topology &topo,
               const char *what)
{
    if (ev.link != kInvalidLink) {
        if (ev.link < 0 || ev.link >= topo.numLinks())
            fatal("fault spec: ", what, " link id ", ev.link,
                  " out of range for ", topo.name(), " (",
                  topo.numLinks(), " links)");
        return ev.link;
    }
    if (ev.a < 0 || ev.a >= topo.numNodes() || ev.b < 0 ||
        ev.b >= topo.numNodes())
        fatal("fault spec: ", what, " endpoint out of range for ",
              topo.name());
    const LinkId l = topo.linkBetween(ev.a, ev.b);
    if (l == kInvalidLink)
        fatal("fault spec: nodes ", ev.a, " and ", ev.b,
              " are not adjacent in ", topo.name());
    return l;
}

} // namespace

FaultSpec
parseFaultSpec(const std::string &spec)
{
    FaultSpec out;
    out.raw = spec;
    for (const std::string &e : splitEvents(spec))
        out.events.push_back(parseEvent(e));
    return out;
}

std::vector<ResolvedFault>
resolveFaults(const FaultSpec &spec, const Topology &topo)
{
    std::vector<ResolvedFault> out;
    for (const FaultEvent &ev : spec.events) {
        switch (ev.kind) {
          case FaultEvent::Kind::LinkFail: {
            ResolvedFault r;
            r.kind = ev.kind;
            r.link = resolveLinkRef(ev, topo, "link");
            r.at = ev.at;
            out.push_back(r);
            break;
          }
          case FaultEvent::Kind::LinkDerate: {
            ResolvedFault r;
            r.kind = ev.kind;
            r.link = resolveLinkRef(ev, topo, "derate");
            r.factor = ev.factor;
            r.at = ev.at;
            out.push_back(r);
            break;
          }
          case FaultEvent::Kind::NodeFail: {
            if (ev.node < 0 || ev.node >= topo.numNodes())
                fatal("fault spec: node id ", ev.node,
                      " out of range for ", topo.name());
            ResolvedFault r;
            r.kind = ev.kind;
            r.node = ev.node;
            r.at = ev.at;
            out.push_back(r);
            break;
          }
          case FaultEvent::Kind::RandLinks: {
            if (ev.count > topo.numLinks())
                fatal("fault spec: rand:", ev.count,
                      " exceeds the ", topo.numLinks(),
                      " links of ", topo.name());
            // Deterministic distinct draw: shuffle all link ids
            // with the event's own seed and take a prefix.
            std::vector<LinkId> ids(
                static_cast<std::size_t>(topo.numLinks()));
            for (LinkId l = 0; l < topo.numLinks(); ++l)
                ids[static_cast<std::size_t>(l)] = l;
            Rng rng(deriveSeed(0xFA171E57ull, ev.seed));
            rng.shuffle(ids);
            for (int i = 0; i < ev.count; ++i) {
                ResolvedFault r;
                r.kind = FaultEvent::Kind::LinkFail;
                r.link = ids[static_cast<std::size_t>(i)];
                r.at = ev.at;
                out.push_back(r);
            }
            break;
          }
        }
    }
    return out;
}

void
applyFaults(const std::vector<ResolvedFault> &faults, Topology &topo,
            bool includeTimed)
{
    for (const ResolvedFault &f : faults) {
        if (f.timed() && !includeTimed)
            continue;
        switch (f.kind) {
          case FaultEvent::Kind::LinkFail:
            topo.failLink(f.link);
            break;
          case FaultEvent::Kind::NodeFail:
            topo.failNode(f.node);
            break;
          case FaultEvent::Kind::LinkDerate:
            topo.derateLink(f.link, f.factor);
            break;
          case FaultEvent::Kind::RandLinks:
            panic("rand fault events must be resolved before apply");
        }
    }
}

std::vector<ResolvedFault>
applyFaultSpec(const std::string &spec, Topology &topo,
               bool includeTimed)
{
    const std::vector<ResolvedFault> faults =
        resolveFaults(parseFaultSpec(spec), topo);
    applyFaults(faults, topo, includeTimed);
    return faults;
}

} // namespace fault
} // namespace srsim
