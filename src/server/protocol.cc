#include "server/protocol.hh"

#include <sstream>

#include "online/script.hh"
#include "util/parse.hh"

namespace srsim {
namespace server {

namespace {

bool
validAllocKind(const std::string &kind)
{
    if (kind == "greedy" || kind == "random")
        return true;
    int stride = 0;
    return kind.rfind("rr:", 0) == 0 &&
           parseStride(kind.substr(3), &stride);
}

/** Parse the key=value tail of an `open` line into `sc`. */
bool
parseOpenConfig(std::istringstream &ls, SessionConfig &sc,
                std::string *err)
{
    std::string tok;
    while (ls >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            *err = "expected key=value, got '" + tok + "'";
            return false;
        }
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        double num = 0.0;
        if (key == "topo") {
            sc.topo = val;
        } else if (key == "tfg") {
            sc.tfg = val;
        } else if (key == "period") {
            if (!parseFinite(val, &num) || num <= 0.0) {
                *err = "period must be a positive number, got '" +
                       val + "'";
                return false;
            }
            sc.period = num;
        } else if (key == "bw") {
            if (!parseFinite(val, &num) || num <= 0.0) {
                *err = "bw must be a positive number, got '" + val +
                       "'";
                return false;
            }
            sc.bandwidth = num;
        } else if (key == "ap") {
            if (!parseFinite(val, &num) || num < 0.0) {
                *err = "ap must be >= 0, got '" + val + "'";
                return false;
            }
            sc.apSpeed = num;
        } else if (key == "alloc") {
            if (!validAllocKind(val)) {
                *err = "unknown alloc kind '" + val +
                       "' (greedy | random | rr:<stride>, stride in [1, " +
                       std::to_string(INT_MAX) + "])";
                return false;
            }
            sc.alloc = val;
        } else if (key == "seed") {
            if (!parseFinite(val, &num) || num < 0.0) {
                *err = "seed must be >= 0, got '" + val + "'";
                return false;
            }
            sc.seed = static_cast<std::uint64_t>(num);
        } else if (key == "cache") {
            if (val != "0" && val != "1") {
                *err = "cache must be 0 or 1, got '" + val + "'";
                return false;
            }
            sc.cache = val == "1";
        } else if (key == "threads") {
            if (!parseFinite(val, &num) || num < 1.0 ||
                num != static_cast<double>(
                           static_cast<std::size_t>(num))) {
                *err = "threads must be a positive integer, got '" +
                       val + "'";
                return false;
            }
            sc.threads = static_cast<std::size_t>(num);
        } else {
            *err = "unknown open key '" + key + "'";
            return false;
        }
    }
    if (sc.topo.empty()) {
        *err = "open requires topo=SPEC";
        return false;
    }
    if (sc.tfg.empty()) {
        *err = "open requires a non-empty tfg source";
        return false;
    }
    if (sc.period <= 0.0) {
        *err = "open requires period=US (> 0)";
        return false;
    }
    return true;
}

} // namespace

DaemonScriptParseResult
parseDaemonScript(std::istream &is)
{
    DaemonScriptParseResult out;
    std::string line;
    int lineNo = 0;
    const auto fail = [&](int ln, std::string msg) {
        out.ok = false;
        out.error = std::move(msg);
        out.errorLine = ln;
        return out;
    };

    while (std::getline(is, line)) {
        ++lineNo;
        std::istringstream ls(line);
        std::string head;
        if (!(ls >> head) || head[0] == '#')
            continue;

        if (head == "open") {
            DaemonOp op;
            op.kind = DaemonOp::Kind::Open;
            op.line = lineNo;
            if (!(ls >> op.session))
                return fail(lineNo, "open requires a session name");
            if (op.session == "open" || op.session == "close" ||
                op.session.find('=') != std::string::npos)
                return fail(lineNo, "invalid session name '" +
                                        op.session + "'");
            op.open.name = op.session;
            std::string err;
            if (!parseOpenConfig(ls, op.open, &err))
                return fail(lineNo, err);
            out.ops.push_back(std::move(op));
            continue;
        }

        if (head == "close") {
            DaemonOp op;
            op.kind = DaemonOp::Kind::Close;
            op.line = lineNo;
            std::string extra;
            if (!(ls >> op.session))
                return fail(lineNo, "close requires a session name");
            if (ls >> extra)
                return fail(lineNo, "unexpected token '" + extra +
                                        "' after close");
            out.ops.push_back(std::move(op));
            continue;
        }

        // "<session> <verb> ..." — the verb grammar is exactly the
        // single-service script's, so reuse its parser.
        const std::string session = head;
        std::string rest;
        std::getline(ls, rest);
        std::istringstream vs(rest);
        std::string verb;
        if (!(vs >> verb))
            return fail(lineNo, "session '" + session +
                                    "' line has no request");

        if (verb == "batch") {
            int n = 0;
            std::string extra;
            if (!(vs >> n) || n <= 0)
                return fail(lineNo,
                            "batch requires a positive count");
            if (vs >> extra)
                return fail(lineNo, "unexpected token '" + extra +
                                        "' after batch count");
            DaemonOp op;
            op.kind = DaemonOp::Kind::Request;
            op.session = session;
            op.line = lineNo;
            op.request.kind = online::RequestKind::AdmitMessage;
            while (static_cast<int>(op.request.admits.size()) < n) {
                if (!std::getline(is, line))
                    return fail(lineNo,
                                "batch truncated by end of script");
                ++lineNo;
                std::istringstream bs(line);
                std::string bsession;
                if (!(bs >> bsession) || bsession[0] == '#')
                    continue;
                if (bsession != session)
                    return fail(lineNo,
                                "batch line must target session '" +
                                    session + "', got '" + bsession +
                                    "'");
                std::string brest;
                std::getline(bs, brest);
                const online::ScriptParseResult one =
                    online::parseRequestLine(brest);
                if (!one.ok)
                    return fail(lineNo, one.error);
                if (one.requests.size() != 1 ||
                    one.requests[0].kind !=
                        online::RequestKind::AdmitMessage)
                    return fail(lineNo,
                                "batch accepts only admit lines");
                for (const online::AdmitSpec &a :
                     one.requests[0].admits)
                    op.request.admits.push_back(a);
            }
            out.ops.push_back(std::move(op));
            continue;
        }

        const online::ScriptParseResult one =
            online::parseRequestLine(rest);
        if (!one.ok)
            return fail(lineNo, one.error);
        if (one.requests.size() != 1)
            return fail(lineNo, "expected exactly one request");
        DaemonOp op;
        op.kind = DaemonOp::Kind::Request;
        op.session = session;
        op.line = lineNo;
        op.request = one.requests[0];
        out.ops.push_back(std::move(op));
    }

    out.ok = true;
    return out;
}

} // namespace server
} // namespace srsim
