/**
 * @file
 * Crash-safe checkpoint/resume journal for sweeps.
 *
 * When FS_CHECKPOINT_DIR is set, a resilient sweep journals every
 * completed cell to
 *
 *     $FS_CHECKPOINT_DIR/<sweep-name>-<fingerprint>.jsonl
 *
 * where <fingerprint> hashes the sweep's configuration key (cell
 * count, workload scale, seeds — whatever the driver deems
 * identity-defining), so a resumed run can only ever pick up a
 * journal written by the *same* sweep. One JSONL record per cell:
 *
 *     {"cell":7,"v":"<hex-encoded payload>"}
 *
 * Durability: every record() rewrites the whole journal to a
 * temporary file, fsyncs it, renames it over the old one, and
 * fsyncs the containing directory — rename(2) is atomic on POSIX,
 * so a run killed at any instant leaves either the previous
 * journal or the new one, never a torn file, and the fsync pair
 * makes both the bytes and the rename itself survive a
 * power-loss-style kill (rename alone guarantees atomicity, not
 * persistence). (Sweeps are dozens of multi-second cells; the
 * O(cells^2) total write volume is noise.) A torn or foreign line
 * is skipped on load and that cell simply recomputes.
 *
 * Resume contract: values round-trip bit-exactly (CellEncoder
 * stores doubles by bit pattern), failed cells are never journaled
 * (a resume retries them), and a resumed sweep therefore renders
 * byte-identical output to an uninterrupted one while executing
 * only the missing cells.
 */

#ifndef FSCACHE_RUNNER_CHECKPOINT_HH
#define FSCACHE_RUNNER_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/errors.hh"

namespace fscache
{

/** 64-bit FNV-1a of a configuration key string. */
std::uint64_t fingerprint64(const std::string &key);

/**
 * Exact-round-trip value encoder for checkpoint payloads. Tokens
 * are space-separated; doubles are stored by bit pattern so the
 * decoded value is the encoded one, bit for bit.
 */
class CellEncoder
{
  public:
    CellEncoder &u64(std::uint64_t v);
    CellEncoder &f64(double v);
    CellEncoder &str(const std::string &s);

    const std::string &result() const { return buf_; }

  private:
    std::string buf_;
};

/** Inverse of CellEncoder; throws FsError on malformed payloads. */
class CellDecoder
{
  public:
    explicit CellDecoder(std::string payload);

    std::uint64_t u64();
    double f64();
    std::string str();

    /**
     * A list's length prefix. Each element takes at least one more
     * token, so a count above the bytes left is malformed: this
     * throws FsError for it instead of letting a corrupt payload
     * size an allocation.
     */
    std::size_t listLength(const char *what);

    /** True when every token has been consumed. */
    bool done() const { return pos_ >= buf_.size(); }

  private:
    std::string nextToken(const char *what);

    std::string buf_;
    std::size_t pos_ = 0;
};

/**
 * Generic exact-round-trip codec for sweep results. A result type
 * lists its fields once, in wire order, e.g.
 *     auto fields() { return std::tie(aef, misses, cdf); }
 * Fields may be double, any integer type or bool, or
 * std::vector<double> (length-prefixed). `r` is taken by value
 * because fields() ties mutable members.
 */
template <typename R>
std::string
encodeFields(R r)
{
    CellEncoder e;
    auto put = [&e]<typename T>(const T &v) {
        if constexpr (std::is_integral_v<T>) {
            e.u64(static_cast<std::uint64_t>(v));
        } else if constexpr (std::is_same_v<T, double>) {
            e.f64(v);
        } else {
            static_assert(std::is_same_v<T, std::vector<double>>);
            e.u64(v.size());
            for (double x : v)
                e.f64(x);
        }
    };
    std::apply([&put](const auto &...f) { (put(f), ...); }, r.fields());
    return e.result();
}

/** Inverse of encodeFields(); throws FsError on a malformed payload,
 *  an out-of-range integer or trailing tokens included. */
template <typename R>
R
decodeFields(const std::string &payload)
{
    CellDecoder d(payload);
    auto get = [&d]<typename T>(T &v) {
        if constexpr (std::is_integral_v<T>) {
            const std::uint64_t raw = d.u64();
            v = static_cast<T>(raw);
            if (static_cast<std::uint64_t>(v) != raw)
                throw FsError("checkpoint payload: integer field out "
                              "of range");
        } else if constexpr (std::is_same_v<T, double>) {
            v = d.f64();
        } else {
            v.resize(d.listLength("list"));
            for (double &x : v)
                x = d.f64();
        }
    };
    R r;
    std::apply([&get](auto &...f) { (get(f), ...); }, r.fields());
    if (!d.done())
        throw FsError("checkpoint payload: trailing tokens");
    return r;
}

/** See file comment. */
class CheckpointJournal
{
  public:
    /**
     * Open (creating or loading) the journal for a sweep under
     * FS_CHECKPOINT_DIR. Returns nullptr when the variable is
     * unset/empty — checkpointing is strictly opt-in.
     *
     * @param sweep_name short stable name, e.g. "fig2"
     * @param config_key identity of the sweep's configuration;
     *        changing it changes the fingerprint and thus the file
     */
    static std::unique_ptr<CheckpointJournal>
    openFromEnv(const std::string &sweep_name,
                const std::string &config_key);

    /** As openFromEnv but with an explicit directory (tests). */
    static std::unique_ptr<CheckpointJournal>
    openAt(const std::string &dir, const std::string &sweep_name,
           const std::string &config_key);

    /** Cell -> encoded payload restored from a previous run. */
    const std::map<std::size_t, std::string> &
    restored() const
    {
        return entries_;
    }

    /**
     * Journal a completed cell (thread-safe; atomic
     * write-then-rename, see file comment).
     */
    void record(std::size_t cell, const std::string &payload);

    /**
     * Rewrite the JSONL journal at `path` in place, keeping only
     * the latest record per cell and dropping torn or foreign
     * lines — record() itself always writes compact files, but a
     * journal assembled by appends (crash-recovery copies, merged
     * per-host journals) can carry stale duplicates. Uses the same
     * atomic write-fsync-rename as record(), and the output is
     * byte-identical to what record() would have produced from the
     * surviving entries, so compaction is idempotent. Returns
     * false when the file cannot be read.
     */
    static bool compactFile(const std::string &path);

    const std::string &path() const { return path_; }

  private:
    explicit CheckpointJournal(std::string path);

    void load();
    void flushLocked();

    // fs-analyze: allow(lock-discipline) const after construction
    // (set once in the ctor, read-only afterwards).
    std::string path_;
    std::mutex mu_;
    // fs-analyze: allow(lock-discipline) phase discipline: load()
    // fills it inside the ctor and restored() is read by the driver
    // before any worker starts; only record() runs concurrently and
    // it mutates under mu_ (flushLocked documents the held-lock
    // contract in its name). TSan covers the concurrent phase.
    std::map<std::size_t, std::string> entries_;
};

} // namespace fscache

#endif // FSCACHE_RUNNER_CHECKPOINT_HH
