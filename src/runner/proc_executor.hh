/**
 * @file
 * Process-isolated sweep farm: the executor switch, the hidden
 * re-entry flags, the procwire result codec, and the local worker
 * slots the lease engine (runner/lease_engine.hh) runs cells on.
 *
 * The thread-pool executor (runner/sweep_runner.hh) quarantines
 * cells that fail *cooperatively* — a thrown exception, a watchdog
 * poll. It cannot contain a real SIGSEGV or a cell that never polls
 * cancellation: those take the whole sweep down. The process
 * executor closes that gap by making a sweep cell *data* instead of
 * a live closure:
 *
 *  - The driver binary re-enters itself: the engine fork/execs up to
 *    FS_WORKERS copies of its own argv plus a hidden
 *    `--fs-worker=<fingerprint>` flag. Each worker runs the
 *    identical driver main() up to its mapResilientCheckpointed()
 *    call — rebuilding the same workload, cache spec, and cell
 *    function — and then serves cells instead of sweeping.
 *  - A worker reads requests on stdin and writes results to fd 3,
 *    one pipe each way. It greets with a netwire HELLO carrying the
 *    sweep fingerprint (the FNV-1a key the checkpoint journal uses),
 *    takes one LEASE at a time, and answers
 *    each with a RESULT embedding a procwire v1 result line: the
 *    checkpoint-codec payload, bit-exact (doubles by bit pattern,
 *    strings hex-encoded). The engine checks the fingerprint, so a
 *    worker that rebuilt a *different* sweep is never leased a cell.
 *  - A worker that dies — SIGSEGV, sanitizer abort, nonzero exit —
 *    kills one cell, not the sweep: the engine names the death from
 *    waitpid, requeues the cell on a fresh worker until the
 *    poison-cell threshold (FS_POISON_KILLS, default 1) quarantines
 *    it as FAILED(crash:SIGSEGV), and a wedge past
 *    FS_WORKER_HARD_TIMEOUT_MS is SIGKILLed as FAILED(hard-timeout).
 *  - Results are merged **in cell order**, so a clean process-mode
 *    run renders byte-identical artifacts to the in-process path
 *    (pinned by the golden_fs_setassoc_coarse_proc ctest), and the
 *    checkpoint journal interoperates across executor modes.
 *
 * Drivers opt in by calling procExecutorInit() first thing in
 * main() (captures argv for re-exec and strips the hidden flags) and
 * using SweepRunner::mapResilientCheckpointed(), whose encode /
 * decode hooks double as the wire codec. See docs/ROBUSTNESS.md
 * §Out-of-process execution.
 */

#ifndef FSCACHE_RUNNER_PROC_EXECUTOR_HH
#define FSCACHE_RUNNER_PROC_EXECUTOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "runner/cell_guard.hh"

namespace fscache
{

class SlotTransport;

/** Which executor mapResilientCheckpointed() runs cells on. */
enum class ExecutorKind
{
    Thread,  ///< in-process thread pool (default)
    Process, ///< multi-process farm (FS_EXECUTOR=process)
    Net,     ///< multi-host TCP farm (FS_EXECUTOR=net)
};

/** FS_EXECUTOR: unset/"thread", "process", or "net"; anything else
 *  is fatal. Re-read on every call so tests can flip it. */
ExecutorKind executorKindFromEnv();

/**
 * Capture argv for worker re-exec and detect the hidden re-entry
 * flags: `--fs-worker=<fingerprint>` (process-farm worker) and
 * `--fs-agent=<port>` (net-farm agent; see runner/net_executor.hh).
 * Must be the first thing a farm-capable driver's main() does: the
 * flags are stripped in place (argc/argv are adjusted) so the
 * driver's own argument parser never sees them, and the filtered
 * argv is what workers are re-exec'd with — an agent's workers must
 * not themselves become agents. Idempotent per process.
 */
void procExecutorInit(int *argc, char **argv);

/** True when this process was exec'd as a farm worker. */
bool procWorkerMode();

/** True when this process was started with `--fs-agent=<port>`. */
bool netAgentMode();

/** The agent's requested listen port (0 = pick an ephemeral port);
 *  meaningful only when netAgentMode(). */
std::uint16_t netAgentPort();

/**
 * The fingerprint of the sweep this worker was spawned to serve
 * (meaningful only when procWorkerMode()). A multi-sweep driver
 * recomputes any checkpointed sweep with a different fingerprint
 * inline — serially, unjournaled — and keeps running main() until
 * it reaches the farmed one.
 */
std::uint64_t procWorkerFingerprint();

/**
 * The cell-result codec: one line built on the checkpoint
 * CellEncoder/CellDecoder, so payloads round-trip bit-exactly. It
 * leads with a protocol version, and decoding a foreign version
 * throws FsError. Netwire RESULT messages carry it verbatim.
 */
namespace procwire
{

/** Protocol version; bumped on any incompatible format change. */
inline constexpr std::uint64_t kVersion = 1;

/** The guarded outcome of one cell, value replaced by its encoded
 *  payload. */
std::string encodeResult(std::size_t cell,
                         const CellOutcome<std::string> &o);

/** Inverse of encodeResult; throws FsError on malformed/foreign
 *  input. */
void decodeResult(const std::string &line, std::size_t &cell,
                  CellOutcome<std::string> &o);

} // namespace procwire

/**
 * Worker side: greet on fd 3, then run each cell leased on stdin
 * through `run_cell` (the guarded cell function with its value
 * encoded) and answer with its RESULT, until RELEASE or EOF; then
 * exit(0). Called by SweepRunner::mapResilientCheckpointed() when
 * procWorkerMode(); never returns.
 */
[[noreturn]] void serveCellsAsWorker(
    std::size_t cells, std::uint64_t fingerprint,
    const std::function<CellOutcome<std::string>(std::size_t)>
        &run_cell);

/** `n` local worker slots serving sweep `fingerprint`: each opens
 *  by fork/exec of this binary with `--fs-worker=<fingerprint>`
 *  over a pair of pipes, and its death is named from waitpid. */
std::unique_ptr<SlotTransport> makeLocalSlots(std::uint64_t fingerprint,
                                              std::size_t n);

} // namespace fscache

#endif // FSCACHE_RUNNER_PROC_EXECUTOR_HH
