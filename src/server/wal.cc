#include "server/wal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/json.hh"
#include "util/json_read.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace srsim {
namespace server {

std::string
encodeWalRecord(const WalRecord &rec)
{
    std::ostringstream os;
    JsonWriter w(os);
    // Replay recompiles from these numbers; byte-exact recovery
    // needs the exact doubles back (periods and byte counts are
    // arbitrary, not microsecond-grid values).
    w.fullPrecision();
    w.beginObject();
    w.kv("seq", rec.seq);
    const DaemonOp &op = rec.op;
    switch (op.kind) {
      case DaemonOp::Kind::Open: {
          const SessionConfig &sc = op.open;
          w.kv("op", "open");
          w.kv("session", op.session);
          w.kv("topo", sc.topo);
          w.kv("tfg", sc.tfg);
          w.kv("period", sc.period);
          w.kv("bw", sc.bandwidth);
          w.kv("ap", sc.apSpeed);
          w.kv("alloc", sc.alloc);
          // As a string: the decoder parses JSON numbers as
          // doubles, which cannot hold every 64-bit seed.
          w.kv("seed", std::to_string(sc.seed));
          w.kv("cache", sc.cache);
          if (sc.threads > 0)
              w.kv("threads",
                   static_cast<std::uint64_t>(sc.threads));
          break;
      }
      case DaemonOp::Kind::Close:
          w.kv("op", "close");
          w.kv("session", op.session);
          break;
      case DaemonOp::Kind::Request: {
          const online::Request &r = op.request;
          switch (r.kind) {
            case online::RequestKind::AdmitMessage:
                w.kv("op", "admit");
                w.kv("session", op.session);
                w.key("admits").beginArray();
                for (const online::AdmitSpec &a : r.admits) {
                    w.beginObject();
                    w.kv("name", a.name);
                    w.kv("src", a.src);
                    w.kv("dst", a.dst);
                    w.kv("bytes", a.bytes);
                    w.endObject();
                }
                w.endArray();
                break;
            case online::RequestKind::RemoveMessage:
                w.kv("op", "remove");
                w.kv("session", op.session);
                w.kv("name", r.name);
                break;
            case online::RequestKind::UpdatePeriod:
                w.kv("op", "period");
                w.kv("session", op.session);
                w.kv("period", r.period);
                break;
            case online::RequestKind::InjectFault:
                w.kv("op", "fault");
                w.kv("session", op.session);
                w.kv("spec", r.faultSpec);
                break;
          }
          break;
      }
    }
    w.endObject();
    return os.str();
}

namespace {

/** 2^64 - 2^11: the last double a std::uint64_t can hold. */
constexpr double kLargestDoubleBelow2To64 = 18446744073709549568.0;

/**
 * A JSON number that is a whole value in [lo, hi]; throws otherwise
 * (a float cast of an out-of-range double is undefined).
 */
std::uint64_t
wholeNumber(const jsonmini::Value &v, const char *what, double lo,
            double hi)
{
    const double d = v.number;
    if (!(d >= lo && d <= hi && d == std::floor(d)))
        throw std::runtime_error(std::string("bad ") + what);
    return static_cast<std::uint64_t>(d);
}

/** Decode one WAL line; throws std::runtime_error on mismatch. */
WalRecord
decodeWalRecord(const std::string &line)
{
    const jsonmini::ValuePtr v = jsonmini::parse(line);
    if (v->kind != jsonmini::Value::Kind::Object)
        throw std::runtime_error("record is not an object");
    WalRecord rec;
    // Integers above 2^53 do not survive a JSON double.
    rec.seq = wholeNumber(v->at("seq"), "seq", 0.0, 9007199254740992.0);
    const std::string op = v->at("op").string;
    rec.op.session = v->at("session").string;
    if (op == "open") {
        rec.op.kind = DaemonOp::Kind::Open;
        SessionConfig &sc = rec.op.open;
        sc.name = rec.op.session;
        sc.topo = v->at("topo").string;
        sc.tfg = v->at("tfg").string;
        sc.period = v->at("period").number;
        sc.bandwidth = v->at("bw").number;
        sc.apSpeed = v->at("ap").number;
        sc.alloc = v->at("alloc").string;
        // Seeds travel as strings: a double would clip them.
        if (!parseUnsigned(v->at("seed").string, 0, UINT64_MAX,
                           &sc.seed))
            throw std::runtime_error("bad seed");
        sc.cache = v->at("cache").boolean;
        // Absent on records written before sessions carried thread
        // overrides: share the daemon's pool. Only representability
        // is checked: a budget past kMaxSessionThreads decodes, and
        // replay rejects that one open, not the rest of the log.
        // Records written before the solver-kind switch was retired
        // may carry a "solver" field; it is ignored.
        if (v->has("threads"))
            sc.threads = wholeNumber(v->at("threads"), "threads", 1.0,
                                     kLargestDoubleBelow2To64);
    } else if (op == "close") {
        rec.op.kind = DaemonOp::Kind::Close;
    } else if (op == "admit") {
        rec.op.kind = DaemonOp::Kind::Request;
        rec.op.request.kind = online::RequestKind::AdmitMessage;
        const jsonmini::Value &arr = v->at("admits");
        if (arr.kind != jsonmini::Value::Kind::Array)
            throw std::runtime_error("admits is not an array");
        for (const jsonmini::ValuePtr &e : arr.array) {
            online::AdmitSpec a;
            a.name = e->at("name").string;
            a.src = e->at("src").string;
            a.dst = e->at("dst").string;
            a.bytes = e->at("bytes").number;
            rec.op.request.admits.push_back(std::move(a));
        }
        if (rec.op.request.admits.empty())
            throw std::runtime_error("empty admit batch");
    } else if (op == "remove") {
        rec.op.kind = DaemonOp::Kind::Request;
        rec.op.request.kind = online::RequestKind::RemoveMessage;
        rec.op.request.name = v->at("name").string;
    } else if (op == "period") {
        rec.op.kind = DaemonOp::Kind::Request;
        rec.op.request.kind = online::RequestKind::UpdatePeriod;
        rec.op.request.period = v->at("period").number;
    } else if (op == "fault") {
        rec.op.kind = DaemonOp::Kind::Request;
        rec.op.request.kind = online::RequestKind::InjectFault;
        rec.op.request.faultSpec = v->at("spec").string;
    } else {
        throw std::runtime_error("unknown op '" + op + "'");
    }
    return rec;
}

} // namespace

WalReadResult
readWal(const std::string &path)
{
    WalReadResult out;
    std::ifstream in(path);
    if (!in) {
        // No log yet: an empty daemon, not an error.
        out.ok = true;
        return out;
    }
    std::string line;
    std::uint64_t lastSeq = 0;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        WalRecord rec;
        try {
            rec = decodeWalRecord(line);
        } catch (const std::exception &e) {
            out.tornTail = true;
            out.error = "line " + std::to_string(lineNo) + ": " +
                        e.what();
            break;
        }
        // The first record's seq is the log's base (a log continued
        // after a snapshot superseded its stale predecessor starts
        // past 1); from there the sequence must be contiguous.
        if (!out.records.empty() && rec.seq != lastSeq + 1) {
            // A sequence break means everything from here on is
            // not the log the synced prefix promised.
            out.tornTail = true;
            out.error = "line " + std::to_string(lineNo) +
                        ": sequence break (expected " +
                        std::to_string(lastSeq + 1) + ", got " +
                        std::to_string(rec.seq) + ")";
            break;
        }
        lastSeq = rec.seq;
        out.records.push_back(std::move(rec));
    }
    out.ok = true;
    return out;
}

WriteAheadLog::~WriteAheadLog()
{
    close();
}

bool
WriteAheadLog::open(const std::string &path, std::uint64_t nextSeq,
                    std::string *err)
{
    close();
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        if (err)
            *err = "cannot open WAL '" + path + "' for append";
        return false;
    }
    nextSeq_ = nextSeq;
    failed_ = false;
    return true;
}

std::uint64_t
WriteAheadLog::append(const DaemonOp &op)
{
    WalRecord rec;
    rec.seq = nextSeq_++;
    rec.op = op;
    pending_ += encodeWalRecord(rec);
    pending_ += '\n';
    ++appended_;
    if (SRSIM_METRICS_ENABLED() && registry_ != nullptr)
        registry_->counter("server.wal_records").add(1);
    return rec.seq;
}

bool
WriteAheadLog::sync()
{
    if (failed_)
        return false;
    if (fd_ < 0 || pending_.empty())
        return true;
    const double t0 = trace::Tracer::nowWallUs();
    std::size_t off = 0;
    while (off < pending_.size()) {
        const ssize_t n = ::write(fd_, pending_.data() + off,
                                  pending_.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // short device: records stay pending, retryable
        off += static_cast<std::size_t>(n);
    }
    if (off < pending_.size()) {
        pending_.erase(0, off);
        warn("WAL short write (", std::strerror(errno),
             "); records stay pending");
        return false;
    }
    pending_.clear();
    int rc;
    while ((rc = ::fsync(fd_)) != 0 && errno == EINTR) {
    }
    if (rc != 0) {
        // Dirty-page fate is unknown after a failed fsync; nothing
        // appended since the last good sync may be certified again.
        failed_ = true;
        warn("WAL fsync failed (", std::strerror(errno),
             "); log can no longer certify durability");
        return false;
    }
    ++fsyncs_;
    if (SRSIM_METRICS_ENABLED() && registry_ != nullptr) {
        registry_->counter("server.wal_fsyncs").add(1);
        registry_
            ->histogram("server.wal_fsync_us",
                        metrics::Histogram::timeBucketsUs())
            .add(trace::Tracer::nowWallUs() - t0);
    }
    return true;
}

void
WriteAheadLog::close()
{
    if (fd_ < 0)
        return;
    sync();
    ::close(fd_);
    fd_ = -1;
}

void
WriteAheadLog::crashForTest()
{
    if (fd_ < 0)
        return;
    pending_.clear();
    ::close(fd_);
    fd_ = -1;
}

} // namespace server
} // namespace srsim
