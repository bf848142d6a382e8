#include "common/net.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace fscache
{

namespace
{

/** Lazily built reflected CRC32 table (IEEE polynomial). */
const std::uint32_t *
crcTable()
{
    static std::uint32_t table[256];
    static bool built = false;
    if (!built) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        built = true;
    }
    return table;
}

void
putLe32(std::string &out, std::uint32_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t
getLe32(const char *p)
{
    const auto *u = reinterpret_cast<const unsigned char *>(p);
    return static_cast<std::uint32_t>(u[0]) |
           static_cast<std::uint32_t>(u[1]) << 8 |
           static_cast<std::uint32_t>(u[2]) << 16 |
           static_cast<std::uint32_t>(u[3]) << 24;
}

bool
writeAllFd(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
setBlocking(int fd, bool blocking)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    if (blocking)
        flags &= ~O_NONBLOCK;
    else
        flags |= O_NONBLOCK;
    return ::fcntl(fd, F_SETFL, flags) == 0;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len)
{
    const std::uint32_t *table = crcTable();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

bool
parseHostList(const std::string &spec, std::vector<HostAddr> &out)
{
    out.clear();
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t sep = spec.find(',', pos);
        if (sep == std::string::npos)
            sep = spec.size();
        std::string item = spec.substr(pos, sep - pos);
        pos = sep + 1;
        if (item.empty()) {
            if (sep == spec.size())
                break;
            return false;
        }
        std::size_t colon = item.rfind(':');
        if (colon == std::string::npos || colon == 0)
            return false;
        HostAddr a;
        a.host = item.substr(0, colon);
        std::string port = item.substr(colon + 1);
        char *end = nullptr;
        unsigned long v = std::strtoul(port.c_str(), &end, 10);
        if (end == port.c_str() || *end != '\0' || v == 0 ||
            v > 65535)
            return false;
        a.port = static_cast<std::uint16_t>(v);
        out.push_back(std::move(a));
        if (sep == spec.size())
            break;
    }
    return !out.empty();
}

void
FrameReader::feed(const char *data, std::size_t len)
{
    if (!corrupt_)
        buf_.append(data, len);
}

FrameReader::Status
FrameReader::next(std::string &out)
{
    if (corrupt_)
        return Status::Corrupt;
    if (buf_.size() < 8)
        return Status::NeedMore;
    std::uint32_t len = getLe32(buf_.data());
    std::uint32_t want_crc = getLe32(buf_.data() + 4);
    if (len > kMaxFrameBytes) {
        corrupt_ = true;
        return Status::Corrupt;
    }
    if (buf_.size() < 8 + static_cast<std::size_t>(len))
        return Status::NeedMore;
    if (crc32(buf_.data() + 8, len) != want_crc) {
        corrupt_ = true;
        return Status::Corrupt;
    }
    out.assign(buf_, 8, len);
    buf_.erase(0, 8 + static_cast<std::size_t>(len));
    return Status::Frame;
}

std::string
encodeFrame(const std::string &payload)
{
    std::string frame;
    frame.reserve(8 + payload.size());
    putLe32(frame, static_cast<std::uint32_t>(payload.size()));
    putLe32(frame, crc32(payload.data(), payload.size()));
    frame += payload;
    return frame;
}

bool
sendFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    std::string frame = encodeFrame(payload);
    return writeAllFd(fd, frame.data(), frame.size());
}

bool
recvInto(int fd, FrameReader &rd)
{
    char chunk[4096];
    ssize_t n;
    do {
        n = ::read(fd, chunk, sizeof(chunk));
    } while (n < 0 && errno == EINTR);
    if (n <= 0)
        return false;
    rd.feed(chunk, static_cast<std::size_t>(n));
    return true;
}

int
listenTcp(std::uint16_t port, std::uint16_t &bound_port)
{
    // CLOEXEC everywhere in this file: the net-farm agent re-execs
    // its farm workers, and an inherited socket copy in a worker
    // would keep the peer's connection half-open after the agent
    // closes it — the coordinator would never see the FIN and could
    // only detect the loss via the (much slower) host timeout.
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one)) != 0) {
        ::close(fd);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        ::close(fd);
        return -1;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        ::close(fd);
        return -1;
    }
    bound_port = ntohs(addr.sin_port);
    return fd;
}

int
acceptConn(int listen_fd)
{
    while (true) {
        int fd = ::accept4(listen_fd, nullptr, nullptr,
                           SOCK_CLOEXEC);
        if (fd >= 0)
            return fd;
        if (errno != EINTR)
            return -1;
    }
}

int
connectTcp(const std::string &host, std::uint16_t port,
           std::uint64_t timeout_ms)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    char portbuf[8];
    std::snprintf(portbuf, sizeof(portbuf), "%u",
                  static_cast<unsigned>(port));
    if (::getaddrinfo(host.c_str(), portbuf, &hints, &res) != 0 ||
        res == nullptr)
        return -1;

    int fd = ::socket(res->ai_family,
                      res->ai_socktype | SOCK_CLOEXEC,
                      res->ai_protocol);
    if (fd < 0) {
        ::freeaddrinfo(res);
        return -1;
    }
    if (!setBlocking(fd, false)) {
        ::close(fd);
        ::freeaddrinfo(res);
        return -1;
    }
    int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
    ::freeaddrinfo(res);
    if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
        ::close(fd);
        return -1;
    }
    if (rc != 0) {
        pollfd pfd{fd, POLLOUT, 0};
        int nready;
        do {
            nready = ::poll(&pfd, 1,
                            static_cast<int>(timeout_ms));
        } while (nready < 0 && errno == EINTR);
        if (nready <= 0) {
            ::close(fd);
            return -1; // timeout or poll error
        }
        int err = 0;
        socklen_t errlen = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err,
                         &errlen) != 0 ||
            err != 0) {
            ::close(fd);
            return -1;
        }
    }
    if (!setBlocking(fd, true)) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    // Lease/heartbeat frames are tiny; Nagle would delay them.
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace fscache
