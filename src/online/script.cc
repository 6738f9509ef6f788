#include "online/script.hh"

#include <sstream>

#include "util/parse.hh"

namespace srsim {
namespace online {

namespace {

ScriptParseResult
failAt(int line, std::string why)
{
    ScriptParseResult res;
    res.error = std::move(why);
    res.errorLine = line;
    return res;
}

/**
 * Strip a trailing comment and surrounding whitespace. A '#' starts
 * a comment only at the beginning of the line or after whitespace —
 * mid-token it is payload (the fault grammar addresses links as
 * '#<index>', e.g. `fault derate:#3=0.5`).
 */
std::string
cleanLine(const std::string &raw)
{
    std::string s = raw;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '#')
            continue;
        if (i == 0 || s[i - 1] == ' ' || s[i - 1] == '\t') {
            s.erase(i);
            break;
        }
    }
    const std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return {};
    const std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** A positive finite number (admit bytes, a period). */
bool
parsePositive(const std::string &tok, double *out)
{
    return parseFinite(tok, out) && *out > 0.0;
}

/** Parse `admit <name> <src> <dst> <bytes>` after the keyword. */
bool
parseAdmitArgs(std::istringstream &ls, AdmitSpec &spec,
               std::string &why)
{
    std::string bytes, extra;
    if (!(ls >> spec.name >> spec.src >> spec.dst >> bytes)) {
        why = "expected: admit <name> <srcTask> <dstTask> <bytes>";
        return false;
    }
    if (!parsePositive(bytes, &spec.bytes)) {
        why = "admit bytes must be a positive number, got '" + bytes +
              "'";
        return false;
    }
    if (ls >> extra) {
        why = "trailing tokens after admit: '" + extra + "'";
        return false;
    }
    return true;
}

} // namespace

ScriptParseResult
parseRequestLine(const std::string &line)
{
    ScriptParseResult res;
    const std::string s = cleanLine(line);
    if (s.empty()) {
        res.ok = true;
        return res;
    }
    std::istringstream ls(s);
    std::string verb;
    ls >> verb;
    Request r;
    std::string extra;
    if (verb == "admit") {
        r.kind = RequestKind::AdmitMessage;
        AdmitSpec spec;
        std::string why;
        if (!parseAdmitArgs(ls, spec, why))
            return failAt(0, why);
        r.admits.push_back(std::move(spec));
    } else if (verb == "remove") {
        r.kind = RequestKind::RemoveMessage;
        if (!(ls >> r.name))
            return failAt(0, "expected: remove <name>");
        if (ls >> extra)
            return failAt(0, "trailing tokens after remove: '" +
                                 extra + "'");
    } else if (verb == "period") {
        r.kind = RequestKind::UpdatePeriod;
        std::string period;
        if (!(ls >> period))
            return failAt(0, "expected: period <tau_in_us>");
        if (!parsePositive(period, &r.period))
            return failAt(0, "period must be a positive number, got '" +
                                 period + "'");
        if (ls >> extra)
            return failAt(0, "trailing tokens after period: '" +
                                 extra + "'");
    } else if (verb == "fault") {
        r.kind = RequestKind::InjectFault;
        std::getline(ls, r.faultSpec);
        const std::size_t b =
            r.faultSpec.find_first_not_of(" \t");
        r.faultSpec =
            b == std::string::npos ? "" : r.faultSpec.substr(b);
        if (r.faultSpec.empty())
            return failAt(0, "expected: fault <fault-spec>");
    } else {
        return failAt(0, "unknown request verb '" + verb + "'");
    }
    res.ok = true;
    res.requests.push_back(std::move(r));
    return res;
}

bool
parseBatchCount(const std::string &tok, int *n)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(tok, 1, kMaxBatch, &v))
        return false;
    *n = static_cast<int>(v);
    return true;
}

ScriptParseResult
parseRequestScript(std::istream &is)
{
    ScriptParseResult res;
    std::string raw;
    int lineNo = 0;
    int batchLeft = 0;
    Request batch;
    while (std::getline(is, raw)) {
        ++lineNo;
        const std::string s = cleanLine(raw);
        if (s.empty())
            continue;
        std::istringstream ls(s);
        std::string verb;
        ls >> verb;

        if (batchLeft > 0) {
            // Inside a batch group only admit lines are legal.
            if (verb != "admit")
                return failAt(lineNo,
                              "expected an admit line inside a "
                              "batch group, got '" +
                                  verb + "'");
            AdmitSpec spec;
            std::string why;
            if (!parseAdmitArgs(ls, spec, why))
                return failAt(lineNo, why);
            batch.admits.push_back(std::move(spec));
            if (--batchLeft == 0)
                res.requests.push_back(std::move(batch));
            continue;
        }

        if (verb == "batch") {
            std::string count, extra;
            int n = 0;
            if (!(ls >> count) || !parseBatchCount(count, &n))
                return failAt(lineNo, "expected: batch <N> with N in [1, " +
                                          std::to_string(kMaxBatch) +
                                          "]");
            if (ls >> extra)
                return failAt(lineNo,
                              "trailing tokens after batch: '" +
                                  extra + "'");
            batch = Request{};
            batch.kind = RequestKind::AdmitMessage;
            batchLeft = n;
            continue;
        }

        ScriptParseResult one = parseRequestLine(s);
        if (!one.ok)
            return failAt(lineNo, one.error);
        for (Request &r : one.requests)
            res.requests.push_back(std::move(r));
    }
    if (batchLeft > 0)
        return failAt(lineNo,
                      "script ended inside a batch group (" +
                          std::to_string(batchLeft) +
                          " admit lines missing)");
    res.ok = true;
    return res;
}

} // namespace online
} // namespace srsim
