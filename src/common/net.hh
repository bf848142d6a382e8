/**
 * @file
 * Minimal socket + framing layer for the sweep farms.
 *
 * The lease engine (runner/lease_engine.hh) moves netwire messages
 * over two kinds of byte stream: TCP to remote agents, and a pair
 * of pipes to each local worker process. A stream has no message
 * boundaries and no integrity guarantee beyond TCP's own checksum,
 * so every message travels as a *frame*:
 *
 *     u32 length (LE) | u32 crc32(payload) (LE) | payload bytes
 *
 * The CRC is IEEE 802.3 (the zlib/PNG polynomial) over the payload
 * only. A receiver that sees a length over the hard cap or a CRC
 * mismatch reports FrameStatus::Corrupt and the caller drops the
 * connection — a corrupt stream cannot be resynchronized, and the
 * lease protocol already knows how to requeue work from a lost
 * host, so "kill and requeue" is both the simplest and the safest
 * recovery.
 *
 * Everything here is blocking-with-timeout and EINTR-safe; nothing
 * allocates on a hot path (frames are sweep-cell sized and
 * per-cell-frequency). All syscall return values are checked — the
 * unchecked-net rule (tools/fscache_analyze.py) holds callers
 * elsewhere to the same bar.
 */

#ifndef FSCACHE_COMMON_NET_HH
#define FSCACHE_COMMON_NET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fscache
{

/** IEEE 802.3 CRC32 (reflected, init/xorout 0xffffffff). */
std::uint32_t crc32(const void *data, std::size_t len);

/** Frames larger than this are protocol corruption by definition
 *  (a sweep-cell payload is KBs; 64 MB means a garbage length). */
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/** One "host:port" endpoint from FS_HOSTS. */
struct HostAddr
{
    std::string host;
    std::uint16_t port = 0;
};

/**
 * Parse "host:port,host:port,..." (FS_HOSTS). Returns false on a
 * malformed list (empty host, bad port) so the caller can name the
 * environment variable in its fatal().
 */
bool parseHostList(const std::string &spec,
                   std::vector<HostAddr> &out);

/**
 * Incremental frame decoder. feed() bytes as they arrive off the
 * socket; next() yields complete payloads. Corrupt is sticky: a
 * stream that lied once cannot be trusted again.
 */
class FrameReader
{
  public:
    enum class Status
    {
        NeedMore, ///< no complete frame buffered yet
        Frame,    ///< one payload extracted into `out`
        Corrupt,  ///< bad length or CRC; drop the connection
    };

    void feed(const char *data, std::size_t len);

    /** Extract the next complete frame's payload, if any. */
    Status next(std::string &out);

  private:
    std::string buf_;
    bool corrupt_ = false;
};

/** The wire bytes of one frame carrying `payload`. */
std::string encodeFrame(const std::string &payload);

/** Frame and send one payload over a socket; false on any send
 *  error (the connection is unusable — close it). EINTR/short-write
 *  safe. Pipe writers frame with encodeFrame() and write(2). */
bool sendFrame(int fd, const std::string &payload);

/** One blocking read(2) from `fd` into `rd`; false on EOF or
 *  error (the connection is gone). EINTR safe. */
bool recvInto(int fd, FrameReader &rd);

/**
 * Bind + listen on 127.0.0.1:`port` (0 picks an ephemeral port);
 * the bound port is stored in `bound_port`. Returns the listening
 * fd, or -1 on error. Loopback-only by design: agents execute
 * arbitrary sweep code for whoever connects, so the farm's trust
 * boundary is the machine (or the tunnel forwarding to it).
 */
int listenTcp(std::uint16_t port, std::uint16_t &bound_port);

/** Accept one connection (blocking, EINTR-safe); -1 on error. */
int acceptConn(int listen_fd);

/**
 * Connect to host:port with a wall-clock timeout (non-blocking
 * connect + poll). Returns the connected fd switched back to
 * blocking mode, or -1 on failure/timeout.
 */
int connectTcp(const std::string &host, std::uint16_t port,
               std::uint64_t timeout_ms);

} // namespace fscache

#endif // FSCACHE_COMMON_NET_HH
