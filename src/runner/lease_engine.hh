/**
 * @file
 * The lease engine: the one state machine behind every out-of-process
 * sweep executor.
 *
 * FS_EXECUTOR=process, FS_EXECUTOR=net and the --fs-agent that serves
 * the latter all run cells the same way. A queue of pending cells is
 * leased to *slots* — a local worker process, or a TCP connection to
 * a remote agent — and every slot speaks netwire v2 HELLO / LEASE /
 * RESULT messages (runner/net_executor.hh) inside CRC32 frames
 * (common/net.hh). The engine owns everything that can go wrong in
 * between:
 *
 *  - **HELLO.** A slot is leasable only once it has greeted with the
 *    sweep's fingerprint. A foreign or malformed greeting counts as
 *    a death of a local slot and abandons a TCP one at once (config
 *    skew never heals by retrying).
 *  - **Kill marks.** A slot lost with leases in flight kill-marks
 *    each leased cell. The cell is requeued at the *front* of the
 *    queue until it has collected FS_POISON_KILLS marks, then it is
 *    quarantined as FAILED(crash:<reason>) with the mark count in
 *    `attempts`. The reason is how the worker died (from waitpid:
 *    SIGSEGV, exit:1, ...) or how the connection was lost (netdrop,
 *    host-timeout, stall).
 *  - **Deadlines.** A local lease past FS_WORKER_HARD_TIMEOUT_MS has
 *    its worker SIGKILLed and is FAILED(hard-timeout), never
 *    requeued; a worker that has not greeted within that budget is
 *    killed and counts as a loss. A TCP lease past
 *    FS_LEASE_TIMEOUT_MS is a `stall` kill; a host silent for
 *    FS_HOST_TIMEOUT_MS (PINGs go out at a third of it) is a
 *    `host-timeout` kill.
 *  - **Backoff and the no-progress cap.** After its k-th consecutive
 *    loss a slot reopens only after base * 2^(k-1) ms, capped at 2 s
 *    (FS_WORKER_BACKOFF_MS). Progress resets k: a RESULT, and for
 *    a local slot also a cell it resolved by quarantine or hard
 *    timeout (a local crash is the cell's fault; a host that keeps
 *    dropping is abandoned whatever it quarantines, so its cells
 *    finish locally). A slot lost 4 + FS_POISON_KILLS times in a
 *    row is abandoned; an engine whose slots are all abandoned is
 *    exhausted. The process farm then fails what is left as
 *    FAILED(crash:farm-stalled); the net coordinator finishes it on
 *    the local executor.
 *
 * step() waits on every slot and on any fds the caller adds in one
 * poll set, so the agent serves its coordinator socket and its
 * workers from a single loop. The slot transport is an interface so
 * the engine's policy can be tested in-process through a fake.
 */

#ifndef FSCACHE_RUNNER_LEASE_ENGINE_HH
#define FSCACHE_RUNNER_LEASE_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <poll.h>

#include "common/net.hh"
#include "runner/cell_guard.hh"
#include "runner/proc_executor.hh"

namespace fscache
{

/** Farm knobs; fromEnv() re-reads the environment on every call. */
struct LeaseConfig
{
    /** Process: local worker slots. Net: one TCP slot per host. */
    ExecutorKind kind = ExecutorKind::Process;

    /** Local worker-process pool size (FS_WORKERS; default FS_JOBS
     *  or the hardware concurrency). */
    unsigned workers = 1;

    /** Agent endpoints (FS_HOSTS=host:port,...; net, required). */
    std::vector<HostAddr> hosts;

    /** Leases in flight per slot: 1 for a local worker,
     *  FS_LEASE_WINDOW (default 2) per host. */
    unsigned leaseWindow = 1;

    /** Kill marks before a cell is quarantined instead of requeued
     *  (FS_POISON_KILLS; default 1 local, where a crash normally
     *  reproduces, and 2 net, where a loss is usually the host's
     *  fault). */
    unsigned poisonKills = 1;

    /** Reopen backoff base in ms (FS_WORKER_BACKOFF_MS; 0 off). */
    std::uint64_t backoffMs = 25;

    /** Local per-cell wall budget before SIGKILL
     *  (FS_WORKER_HARD_TIMEOUT_MS; 0 off). */
    std::uint64_t hardTimeoutMs = 0;

    /** Net per-lease wall budget (FS_LEASE_TIMEOUT_MS; 0 off — a
     *  slow cell and a stalled one look alike without a budget). */
    std::uint64_t leaseTimeoutMs = 0;

    /** Silence before a host is dead (FS_HOST_TIMEOUT_MS). */
    std::uint64_t hostTimeoutMs = 10000;

    /** TCP connect budget per attempt (FS_CONNECT_TIMEOUT_MS). */
    std::uint64_t connectTimeoutMs = 1000;

    bool local() const { return kind != ExecutorKind::Net; }

    /** Read the knobs of `kind`'s slots; fatal on a bad value. */
    static LeaseConfig fromEnv(ExecutorKind kind);
};

/**
 * How the engine reaches its slots. Two real implementations share
 * FdSlots: local worker processes over pipes
 * (makeLocalSlots, runner/proc_executor.hh) and TCP agents
 * (makeTcpSlots, runner/net_executor.hh).
 */
class SlotTransport
{
  public:
    virtual ~SlotTransport() = default;

    virtual std::size_t slots() const = 0;

    /** Start slot `s`: spawn its worker or connect to its host. */
    virtual bool open(std::size_t s) = 0;

    /** Stop slot `s` — a worker still running at `kill_at_ns`
     *  (steady clock; 0: now) is SIGKILLed — and name how it ended
     *  ("SIGSEGV", "exit:1") when the transport can tell; ""
     *  otherwise. */
    virtual std::string close(std::size_t s, std::uint64_t kill_at_ns) = 0;

    /** Slot name for diagnostics ("worker 3", "host a:7070"). */
    virtual std::string name(std::size_t s) const = 0;

    /** Frame and write one message to open slot `s`. */
    virtual bool write(std::size_t s, const std::string &msg) = 0;

    /** Wait up to `timeout_ms` (-1: no limit) for input on any open
     *  slot or on `extra` (whose revents are filled in), appending
     *  the slots with input or EOF to `ready`. */
    virtual void wait(int timeout_ms, std::vector<pollfd> &extra,
                      std::vector<std::size_t> &ready) = 0;

    /** Move slot `s`'s pending input into `rd`; false on EOF. */
    virtual bool read(std::size_t s, FrameReader &rd) = 0;
};

/** A transport whose open slots are connected stream sockets. */
class FdSlots : public SlotTransport
{
  public:
    explicit FdSlots(std::size_t n) : fds_(n, -1) {}

    std::size_t slots() const override { return fds_.size(); }
    void wait(int timeout_ms, std::vector<pollfd> &extra,
              std::vector<std::size_t> &ready) override;

    bool
    write(std::size_t s, const std::string &msg) override
    {
        return sendFrame(fds_[s], msg);
    }

    bool
    read(std::size_t s, FrameReader &rd) override
    {
        return recvInto(fds_[s], rd);
    }

  protected:
    std::vector<int> fds_; ///< -1 while a slot is closed
};

/** See file comment. */
class LeaseEngine
{
  public:
    /** Cells resolved by one step(): completed, reported failed by
     *  the slot, or quarantined here. */
    using Done =
        std::vector<std::pair<std::size_t, CellOutcome<std::string>>>;

    LeaseEngine(SlotTransport &transport, const LeaseConfig &cfg,
                std::uint64_t fingerprint);

    /** RELEASE and close every open slot. */
    ~LeaseEngine();

    LeaseEngine(const LeaseEngine &) = delete;
    LeaseEngine &operator=(const LeaseEngine &) = delete;

    void submit(std::size_t cell) { pending_.push_back(cell); }

    /**
     * One round: open slots while work is pending, lease, enforce
     * deadlines and heartbeats, wait up to `timeout_ms` (-1: until
     * the next engine deadline) for slot input or for `extra`, and
     * append every resolved cell to `done`. Once every local slot
     * is abandoned, the pending cells resolve as
     * FAILED(crash:farm-stalled); once every TCP slot is, step()
     * returns at once and leaves them pending for the caller.
     */
    void step(int timeout_ms, std::vector<pollfd> &extra, Done &done);

    /** No cell pending or leased. */
    bool idle() const;

    /** Every slot is abandoned: nothing queued can run here. */
    bool exhausted() const;

  private:
    struct Lease
    {
        std::size_t cell;
        std::uint64_t deadlineNs; ///< 0 = none
    };

    struct Slot
    {
        enum class State
        {
            Closed,    ///< reopen at retryAtNs while work is pending
            Hello,     ///< open; greeting not yet verified
            Ready,     ///< leasable
            Abandoned, ///< given up on for this engine's lifetime
        } state = State::Closed;
        FrameReader rd;
        std::deque<Lease> leases;
        unsigned losses = 0; ///< consecutive; progress resets
        std::uint64_t retryAtNs = 0;
        std::uint64_t lastRecvNs = 0;
        std::uint64_t lastPingNs = 0;
    };

    bool open(std::size_t s) const;
    void tend(std::size_t s, std::uint64_t now, std::uint64_t &wake,
              Done &done);
    void receive(std::size_t s, const std::string &msg, Done &done);
    void lose(std::size_t s, const std::string &why, bool foreign,
              Done &done);
    bool killMark(std::size_t cell, const std::string &how,
                  const std::string &who, Done &done);

    SlotTransport &t_;
    LeaseConfig cfg_;
    std::uint64_t fingerprint_;
    std::vector<Slot> slots_;
    std::deque<std::size_t> pending_;
    std::map<std::size_t, unsigned> kills_;
};

/**
 * Run the `missing` cells of sweep `fingerprint` on the `kind` farm
 * (Process or Net) and return their outcomes by cell, calling
 * `on_payload` (may be null) with each success's encoded payload as
 * it arrives (checkpoint journaling). Under Process every cell is
 * resolved. Under Net, cells absent from the result were left over
 * when every host was lost: the caller finishes them locally.
 */
std::map<std::size_t, CellOutcome<std::string>> runFarm(
    ExecutorKind kind, const std::vector<std::size_t> &missing,
    std::uint64_t fingerprint,
    const std::function<void(std::size_t, const std::string &)>
        &on_payload);

} // namespace fscache

#endif // FSCACHE_RUNNER_LEASE_ENGINE_HH
