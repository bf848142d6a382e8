/**
 * @file
 * Multi-host sweep farm: the netwire protocol every farm slot
 * speaks, the TCP slots of FS_EXECUTOR=net, and the --fs-agent that
 * serves them.
 *
 * FS_EXECUTOR=net extends the process farm's contract across hosts.
 * Both are compositions of the lease engine (runner/lease_engine.hh):
 *
 *  - **The coordinator** (the driver run with FS_EXECUTOR=net) is
 *    the engine over TCP slots, one per FS_HOSTS=host:port agent:
 *    leases go out in a window of FS_LEASE_WINDOW per host, PINGs
 *    detect silently dead hosts after FS_HOST_TIMEOUT_MS, lost hosts
 *    reconnect with backoff, and results merge **in cell order**, so
 *    a clean net run is byte-identical to FS_EXECUTOR=thread
 *    (golden-pinned). When every host is abandoned, the caller
 *    (SweepRunner::mapResilientCheckpointed) warns once and finishes
 *    the remaining cells on the local executor; the sweep still
 *    exits 0.
 *  - **An agent** is the driver binary re-exec'd with a hidden
 *    `--fs-agent=<port>` flag (port 0 = ephemeral; the bound port is
 *    announced on stderr and, when FS_AGENT_PORT_FILE is set,
 *    written there for scripts). It runs main() up to its
 *    mapResilientCheckpointed() call, then serves that sweep: an
 *    accept loop plus the same engine over local worker slots, with
 *    the coordinator socket and every worker in one poll set. A
 *    SIGSEGV on a remote host kills one worker there, and the
 *    resulting FAILED(crash:SIGSEGV) travels back like any other
 *    outcome. Failures the agent *reports* are final at the
 *    coordinator, never requeued.
 *  - **Framing**: every message is a netwire v2 line inside a
 *    length+CRC32 frame (common/net.hh). A corrupt frame drops the
 *    connection and the host's leases requeue, the same path as a
 *    host crash.
 *
 * Results journal exactly as in process mode: the coordinator
 * records each wire payload verbatim, so journals resume across
 * executors in both directions.
 */

#ifndef FSCACHE_RUNNER_NET_EXECUTOR_HH
#define FSCACHE_RUNNER_NET_EXECUTOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace fscache
{

class SlotTransport;
struct LeaseConfig;

/**
 * Wire protocol v2: checkpoint-codec lines inside CRC32 frames,
 * spoken by every farm slot (local workers and remote agents alike).
 * Every message leads with the protocol version and a message type;
 * decoding a foreign version throws FsError.
 */
namespace netwire
{

/** Protocol version; bumped on any incompatible format change. */
inline constexpr std::uint64_t kVersion = 2;

enum class Type : std::uint64_t
{
    Hello = 1,   ///< slot -> engine: fingerprint + cell count
    Lease = 2,   ///< engine -> slot: run this cell
    Result = 3,  ///< slot -> engine: procwire v1 result, verbatim
    Ping = 4,    ///< engine -> agent: heartbeat probe
    Pong = 5,    ///< agent -> engine: heartbeat answer
    Release = 6, ///< engine -> slot: sweep done, exit cleanly
};

std::string encodeHello(std::uint64_t fingerprint,
                        std::size_t cells);
std::string encodeLease(std::size_t cell);

/** The payload is a complete procwire v1 result line, embedded
 *  verbatim so remote results are bit-identical to local ones. */
std::string encodeResult(const std::string &procwire_line);
std::string encodePing();
std::string encodePong();
std::string encodeRelease();

/** Peek a message's type; throws FsError on malformed/foreign
 *  input. */
Type decodeType(const std::string &msg);

void decodeHello(const std::string &msg,
                 std::uint64_t &fingerprint, std::size_t &cells);
void decodeLease(const std::string &msg, std::size_t &cell);
void decodeResult(const std::string &msg,
                  std::string &procwire_line);

} // namespace netwire

/** One TCP slot per `cfg.hosts` agent (connect, then HELLO). */
std::unique_ptr<SlotTransport> makeTcpSlots(const LeaseConfig &cfg);

/**
 * Agent side: listen on netAgentPort() and serve cells of sweep
 * `fingerprint` to one coordinator at a time on local worker slots.
 * Exits the process on RELEASE; a dropped coordinator sends the
 * agent back to accepting, with its workers kept warm. Called by
 * SweepRunner::mapResilientCheckpointed() when netAgentMode();
 * never returns.
 */
[[noreturn]] void serveCellsAsAgent(std::size_t cells,
                                    std::uint64_t fingerprint);

} // namespace fscache

#endif // FSCACHE_RUNNER_NET_EXECUTOR_HH
