#include "runner/net_executor.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "common/errors.hh"
#include "common/fault_injection.hh"
#include "common/log.hh"
#include "common/net.hh"
#include "runner/checkpoint.hh"
#include "runner/lease_engine.hh"
#include "runner/proc_executor.hh"

namespace fscache
{

namespace netwire
{

namespace
{

CellEncoder
header(Type t)
{
    CellEncoder enc;
    enc.u64(kVersion).u64(static_cast<std::uint64_t>(t));
    return enc;
}

/** A decoder positioned after the (version, type) prefix. */
CellDecoder
body(const std::string &msg, Type &type)
{
    CellDecoder dec(msg);
    std::uint64_t version = dec.u64();
    if (version != kVersion)
        throw FsError(strprintf(
            "net farm protocol version mismatch: got %llu, want "
            "%llu",
            static_cast<unsigned long long>(version),
            static_cast<unsigned long long>(kVersion)));
    std::uint64_t t = dec.u64();
    if (t < static_cast<std::uint64_t>(Type::Hello) ||
        t > static_cast<std::uint64_t>(Type::Release))
        throw FsError("net farm message: bad type");
    type = static_cast<Type>(t);
    return dec;
}

CellDecoder
body(const std::string &msg, Type want, const char *what)
{
    Type got;
    CellDecoder dec = body(msg, got);
    if (got != want)
        throw FsError(strprintf("net farm message: wanted %s", what));
    return dec;
}

void
finish(const CellDecoder &dec, const char *what)
{
    if (!dec.done())
        throw FsError(strprintf("net farm %s has trailing tokens",
                                what));
}

} // namespace

std::string
encodeHello(std::uint64_t fingerprint, std::size_t cells)
{
    return header(Type::Hello).u64(fingerprint).u64(cells).result();
}

std::string
encodeLease(std::size_t cell)
{
    return header(Type::Lease).u64(cell).result();
}

std::string
encodeResult(const std::string &procwire_line)
{
    return header(Type::Result).str(procwire_line).result();
}

std::string
encodePing()
{
    return header(Type::Ping).result();
}

std::string
encodePong()
{
    return header(Type::Pong).result();
}

std::string
encodeRelease()
{
    return header(Type::Release).result();
}

Type
decodeType(const std::string &msg)
{
    Type t;
    body(msg, t);
    return t;
}

void
decodeHello(const std::string &msg, std::uint64_t &fingerprint,
            std::size_t &cells)
{
    CellDecoder dec = body(msg, Type::Hello, "HELLO");
    fingerprint = dec.u64();
    cells = static_cast<std::size_t>(dec.u64());
    finish(dec, "HELLO");
}

void
decodeLease(const std::string &msg, std::size_t &cell)
{
    CellDecoder dec = body(msg, Type::Lease, "LEASE");
    cell = static_cast<std::size_t>(dec.u64());
    finish(dec, "LEASE");
}

void
decodeResult(const std::string &msg, std::string &procwire_line)
{
    CellDecoder dec = body(msg, Type::Result, "RESULT");
    procwire_line = dec.str();
    finish(dec, "RESULT");
}

} // namespace netwire

namespace
{

/** One TCP connection per FS_HOSTS agent; see makeTcpSlots(). */
class TcpSlots final : public FdSlots
{
  public:
    explicit TcpSlots(const LeaseConfig &cfg)
        : FdSlots(cfg.hosts.size()), hosts_(cfg.hosts),
          connectTimeoutMs_(cfg.connectTimeoutMs)
    {
    }

    bool
    open(std::size_t s) override
    {
        fds_[s] = connectTcp(hosts_[s].host, hosts_[s].port,
                             connectTimeoutMs_);
        return fds_[s] >= 0;
    }

    std::string
    close(std::size_t s, std::uint64_t) override
    {
        ::close(fds_[s]);
        fds_[s] = -1;
        return ""; // the engine knows why it hung up
    }

    std::string
    name(std::size_t s) const override
    {
        return strprintf("host %s:%u", hosts_[s].host.c_str(),
                         static_cast<unsigned>(hosts_[s].port));
    }

  private:
    std::vector<HostAddr> hosts_;
    std::uint64_t connectTimeoutMs_;
};

} // namespace

std::unique_ptr<SlotTransport>
makeTcpSlots(const LeaseConfig &cfg)
{
    return std::make_unique<TcpSlots>(cfg);
}

void
serveCellsAsAgent(std::size_t cells, std::uint64_t fingerprint)
{
    std::uint16_t bound = 0;
    int listen_fd = listenTcp(netAgentPort(), bound);
    if (listen_fd < 0)
        fatal("fs-agent: cannot listen on 127.0.0.1:%u",
              static_cast<unsigned>(netAgentPort()));
    std::fprintf(stderr, "fs-agent: listening on 127.0.0.1:%u "
                         "(sweep %016llx, %zu cells)\n",
                 static_cast<unsigned>(bound),
                 static_cast<unsigned long long>(fingerprint),
                 cells);
    const char *port_file = std::getenv("FS_AGENT_PORT_FILE");
    if (port_file != nullptr && *port_file != '\0') {
        // Scripts cannot parse stderr races reliably; publish the
        // bound port in a file they can poll.
        std::FILE *f = std::fopen(port_file, "w");
        if (f == nullptr ||
            std::fprintf(f, "%u\n",
                         static_cast<unsigned>(bound)) < 0 ||
            std::fclose(f) != 0)
            fatal("fs-agent: cannot write FS_AGENT_PORT_FILE "
                  "\"%s\"", port_file);
    }

    const LeaseConfig cfg = LeaseConfig::fromEnv(ExecutorKind::Process);
    std::unique_ptr<SlotTransport> workers = makeLocalSlots(
        fingerprint, std::min<std::size_t>(cfg.workers, cells));
    {
        LeaseEngine engine(*workers, cfg, fingerprint);
        LeaseEngine::Done done;
        int conn = -1;
        FrameReader rd;
        // Leases of the current connection. The engine outlives a
        // dropped coordinator: results for an earlier connection's
        // leases are stale and dropped, and a re-leased cell simply
        // computes again — deterministically, so duplicated work is
        // waste, never skew.
        std::set<std::size_t> active;
        auto drop = [&] {
            ::close(conn);
            conn = -1;
            active.clear();
        };
        auto reply = [&](const std::string &msg) {
            if (conn >= 0 && !sendFrame(conn, msg))
                drop();
        };
        bool released = false;
        while (!released) {
            for (auto &[cell, o] : done)
                if (active.erase(cell) != 0)
                    reply(netwire::encodeResult(
                        procwire::encodeResult(cell, o)));
            done.clear();

            std::vector<pollfd> extra{
                {conn >= 0 ? conn : listen_fd, POLLIN, 0}};
            engine.step(-1, extra, done);
            if (extra[0].revents == 0)
                continue;
            if (conn < 0) {
                conn = acceptConn(listen_fd);
                if (conn < 0)
                    fatal("fs-agent: accept failed: %s",
                          std::strerror(errno));
                rd = FrameReader{};
                reply(netwire::encodeHello(fingerprint, cells));
                continue;
            }
            if (!recvInto(conn, rd)) {
                drop(); // coordinator gone: back to accepting
                continue;
            }
            std::string msg;
            FrameReader::Status st = FrameReader::Status::NeedMore;
            while (conn >= 0 && !released &&
                   (st = rd.next(msg)) == FrameReader::Status::Frame) {
                std::size_t cell = 0;
                netwire::Type type;
                try {
                    type = netwire::decodeType(msg);
                    if (type == netwire::Type::Lease) {
                        netwire::decodeLease(msg, cell);
                        if (cell >= cells)
                            throw FsError(strprintf(
                                "lease for cell %zu out of range",
                                cell));
                    } else if (type != netwire::Type::Ping &&
                               type != netwire::Type::Release) {
                        throw FsError("unexpected message type");
                    }
                } catch (const std::exception &e) {
                    warn("fs-agent: %s; dropping connection",
                         e.what());
                    drop();
                    break;
                }
                if (type == netwire::Type::Release) {
                    released = true;
                } else if (type == netwire::Type::Ping) {
                    reply(netwire::encodePong());
                } else {
                    FaultInjector::NetFault f =
                        FaultInjector::netFaultForCell(cell);
                    if (f == FaultInjector::NetFault::Drop)
                        drop(); // injected mid-cell connection loss
                    else if (f != FaultInjector::NetFault::Stall) {
                        // (an injected stall swallows the lease and
                        // keeps heartbeating)
                        engine.submit(cell);
                        active.insert(cell);
                    }
                }
            }
            if (conn >= 0 && !released &&
                st == FrameReader::Status::Corrupt) {
                warn("fs-agent: corrupt frame from coordinator; "
                     "dropping connection");
                drop();
            }
        }
        ::close(conn);
    } // ~LeaseEngine: orderly worker shutdown before exiting
    ::close(listen_fd);
    std::_Exit(0);
}

} // namespace fscache
