/**
 * @file
 * Write-ahead log of the scheduling daemon.
 *
 * Durability contract: every *accepted* state-changing operation
 * (open, close, and each accepted request) is appended as one JSON
 * object per line, in commit order, tagged with a strictly
 * increasing sequence number. Records are buffered in user space
 * and made durable by sync() — write(2) + fsync(2) — so the daemon
 * can group-commit batches; anything not yet synced is exactly what
 * a crash may lose. Replaying the log from an empty daemon (or a
 * snapshot's walseq) deterministically reconstructs the state:
 * rejected requests never reach the log, and accepted requests
 * re-applied to the same prior state are accepted again with
 * byte-identical published schedules.
 *
 * The reader is tolerant of a torn tail: a truncated or malformed
 * final line (the classic crash-mid-write artifact) ends the replay
 * cleanly instead of failing recovery. Corruption *before* the tail
 * (a record that parses but breaks sequence monotonicity) is also
 * treated as the start of the tail. The first record fixes the
 * log's base sequence — it need not be 1: a log that continues
 * after a snapshot superseded its stale predecessor starts past it
 * (recovery then insists on a snapshot that bridges the gap).
 */

#ifndef SRSIM_SERVER_WAL_HH_
#define SRSIM_SERVER_WAL_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.hh"

namespace srsim {

namespace metrics {
class Registry;
}

namespace server {

/** One durable log record: a sequenced daemon operation. */
struct WalRecord
{
    std::uint64_t seq = 0;
    DaemonOp op;
};

/** Serialize one record as a single JSON line (no newline). */
std::string encodeWalRecord(const WalRecord &rec);

/** Outcome of reading a WAL file. */
struct WalReadResult
{
    /** False only on I/O-level failure (missing file is ok=true). */
    bool ok = false;
    std::vector<WalRecord> records;
    /** True when a torn/corrupt tail was discarded. */
    bool tornTail = false;
    /** Diagnostic for !ok or for the discarded tail. */
    std::string error;
};

/** Read every intact record of `path` (missing file = 0 records). */
WalReadResult readWal(const std::string &path);

/** Append-only writer with explicit group commit. */
class WriteAheadLog
{
  public:
    WriteAheadLog() = default;
    ~WriteAheadLog();

    WriteAheadLog(const WriteAheadLog &) = delete;
    WriteAheadLog &operator=(const WriteAheadLog &) = delete;

    /**
     * Open `path` for appending; new records are numbered from
     * `nextSeq`. @return false (with *err set) on I/O failure.
     */
    bool open(const std::string &path, std::uint64_t nextSeq,
              std::string *err);

    bool isOpen() const { return fd_ >= 0; }

    /** Buffer one record; @return its sequence number. */
    std::uint64_t append(const DaemonOp &op);

    /**
     * Make every buffered record durable (write + fsync).
     * @return true iff every appended record is on disk. A short
     * write keeps the remainder pending (a later sync retries); a
     * failed fsync is sticky — the dirty pages' fate is unknown, so
     * the log can never again certify durability on this fd.
     */
    bool sync();

    /** Graceful close: sync (best effort), then close the fd. */
    void close();

    /**
     * Crash simulation for tests: drop the user-space buffer and
     * close the fd without syncing — on-disk state is exactly the
     * last sync()'d prefix, as after a real crash.
     */
    void crashForTest();

    /**
     * Registry the server.wal_* metrics land in; nullptr (the
     * default) records nothing. The daemon points this at its root
     * context's registry before opening.
     */
    void setRegistry(metrics::Registry *r) { registry_ = r; }

    /** Sequence number the next append() will use. */
    std::uint64_t nextSeq() const { return nextSeq_; }
    /** Records appended (buffered or synced) this run. */
    std::uint64_t recordsAppended() const { return appended_; }
    /** sync() calls that actually hit the disk. */
    std::uint64_t fsyncs() const { return fsyncs_; }

  private:
    metrics::Registry *registry_ = nullptr;
    int fd_ = -1;
    std::string pending_;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t appended_ = 0;
    std::uint64_t fsyncs_ = 0;
    /** Set by a failed fsync; cleared only by open(). */
    bool failed_ = false;
};

} // namespace server
} // namespace srsim

#endif // SRSIM_SERVER_WAL_HH_
