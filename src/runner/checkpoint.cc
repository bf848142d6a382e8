#include "runner/checkpoint.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/errors.hh"
#include "common/log.hh"

namespace fscache
{

std::uint64_t
fingerprint64(const std::string &key)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace
{

const char kHexDigits[] = "0123456789abcdef";

std::string
hexEncode(const std::string &raw)
{
    std::string out;
    out.reserve(2 * raw.size());
    for (unsigned char c : raw) {
        out.push_back(kHexDigits[c >> 4]);
        out.push_back(kHexDigits[c & 0xf]);
    }
    return out;
}

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

bool
hexDecode(const std::string &hex, std::string &out)
{
    if (hex.size() % 2 != 0)
        return false;
    out.clear();
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        int hi = hexNibble(hex[i]);
        int lo = hexNibble(hex[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out.push_back(static_cast<char>((hi << 4) | lo));
    }
    return true;
}

} // namespace

CellEncoder &
CellEncoder::u64(std::uint64_t v)
{
    if (!buf_.empty())
        buf_.push_back(' ');
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "%llx",
                  static_cast<unsigned long long>(v));
    buf_ += tmp;
    return *this;
}

CellEncoder &
CellEncoder::f64(double v)
{
    return u64(std::bit_cast<std::uint64_t>(v));
}

CellEncoder &
CellEncoder::str(const std::string &s)
{
    if (!buf_.empty())
        buf_.push_back(' ');
    buf_.push_back('s');
    buf_ += hexEncode(s);
    return *this;
}

CellDecoder::CellDecoder(std::string payload)
    : buf_(std::move(payload))
{
}

std::string
CellDecoder::nextToken(const char *what)
{
    while (pos_ < buf_.size() && buf_[pos_] == ' ')
        ++pos_;
    if (pos_ >= buf_.size())
        throw FsError(strprintf(
            "checkpoint payload truncated (wanted %s)", what));
    std::size_t start = pos_;
    while (pos_ < buf_.size() && buf_[pos_] != ' ')
        ++pos_;
    return buf_.substr(start, pos_ - start);
}

std::uint64_t
CellDecoder::u64()
{
    std::string tok = nextToken("u64");
    char *end = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &end, 16);
    // The whole token, so an embedded NUL cannot end it early.
    if (end == tok.c_str() || end != tok.c_str() + tok.size())
        throw FsError(strprintf(
            "checkpoint payload: bad u64 token \"%s\"", tok.c_str()));
    return v;
}

std::size_t
CellDecoder::listLength(const char *what)
{
    std::uint64_t n = u64();
    if (n > buf_.size() - pos_)
        throw FsError(strprintf(
            "checkpoint payload: %s length %llu exceeds the %zu bytes "
            "left", what, static_cast<unsigned long long>(n),
            buf_.size() - pos_));
    return static_cast<std::size_t>(n);
}

double
CellDecoder::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
CellDecoder::str()
{
    std::string tok = nextToken("str");
    if (tok.empty() || tok[0] != 's')
        throw FsError(strprintf(
            "checkpoint payload: bad str token \"%s\"", tok.c_str()));
    std::string out;
    if (!hexDecode(tok.substr(1), out))
        throw FsError(strprintf(
            "checkpoint payload: bad str token \"%s\"", tok.c_str()));
    return out;
}

std::unique_ptr<CheckpointJournal>
CheckpointJournal::openFromEnv(const std::string &sweep_name,
                               const std::string &config_key)
{
    const char *dir = std::getenv("FS_CHECKPOINT_DIR");
    if (dir == nullptr || *dir == '\0')
        return nullptr;
    return openAt(dir, sweep_name, config_key);
}

std::unique_ptr<CheckpointJournal>
CheckpointJournal::openAt(const std::string &dir,
                          const std::string &sweep_name,
                          const std::string &config_key)
{
    // Best-effort create; an existing directory is the common case.
    ::mkdir(dir.c_str(), 0777);
    struct stat st{};
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        fatal("FS_CHECKPOINT_DIR \"%s\" is not a writable directory",
              dir.c_str());

    std::uint64_t fp = fingerprint64(config_key);
    std::string path = strprintf("%s/%s-%016llx.jsonl", dir.c_str(),
                                 sweep_name.c_str(),
                                 static_cast<unsigned long long>(fp));
    auto journal = std::unique_ptr<CheckpointJournal>(
        new CheckpointJournal(std::move(path)));
    journal->load();
    return journal;
}

CheckpointJournal::CheckpointJournal(std::string path)
    : path_(std::move(path))
{
}

void
CheckpointJournal::load()
{
    std::ifstream in(path_);
    if (!in)
        return; // fresh sweep
    std::string line;
    while (std::getline(in, line)) {
        // Minimal, forgiving parse of {"cell":N,"v":"..."}: a torn
        // final line (the run died mid-write under a non-atomic
        // filesystem) or any foreign line is skipped — that cell
        // just recomputes.
        std::size_t cpos = line.find("\"cell\":");
        std::size_t vpos = line.find("\"v\":\"");
        if (cpos == std::string::npos || vpos == std::string::npos)
            continue;
        char *end = nullptr;
        unsigned long long cell =
            std::strtoull(line.c_str() + cpos + 7, &end, 10);
        if (end == line.c_str() + cpos + 7)
            continue;
        std::size_t vstart = vpos + 5;
        std::size_t vend = line.find('"', vstart);
        if (vend == std::string::npos || line.size() < vend + 2 ||
            line[vend + 1] != '}') {
            continue; // torn record
        }
        entries_[static_cast<std::size_t>(cell)] =
            line.substr(vstart, vend - vstart);
    }
}

bool
CheckpointJournal::compactFile(const std::string &path)
{
    {
        std::ifstream probe(path);
        if (!probe)
            return false;
    }
    // load() keeps the *last* record per cell (entries_ is keyed by
    // cell and later lines overwrite) and skips torn lines; one
    // flush then writes the canonical compact form.
    CheckpointJournal j(path);
    j.load();
    std::lock_guard<std::mutex> g(j.mu_);
    j.flushLocked();
    return true;
}

void
CheckpointJournal::record(std::size_t cell, const std::string &payload)
{
    std::lock_guard<std::mutex> g(mu_);
    entries_[cell] = payload;
    flushLocked();
}

void
CheckpointJournal::flushLocked()
{
    std::string body;
    for (const auto &[cell, payload] : entries_) {
        // Appended, not formatted with %s: a payload byte that ends
        // a C string must not truncate the record on a rewrite.
        body += strprintf("{\"cell\":%zu,\"v\":\"", cell);
        body += payload;
        body += "\"}\n";
    }

    // Durability contract (power-loss-style kill at any instant):
    // fsync the *data* before the rename publishes it, and fsync
    // the *directory* after, so neither the bytes nor the rename
    // itself can be lost to a cache that never hit disk. rename(2)
    // alone only guarantees atomicity, not persistence.
    std::string tmp = path_ + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0666);
    if (fd < 0) {
        warn("checkpoint: cannot write %s; cell results will not "
             "be resumable", tmp.c_str());
        return;
    }
    const char *p = body.data();
    std::size_t left = body.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("checkpoint: short write to %s; keeping previous "
                 "journal", tmp.c_str());
            ::close(fd);
            std::remove(tmp.c_str());
            return;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0)
        warn("checkpoint: fsync %s failed; journal may not "
             "survive power loss", tmp.c_str());
    ::close(fd);

    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        warn("checkpoint: rename %s -> %s failed", tmp.c_str(),
             path_.c_str());
        std::remove(tmp.c_str());
        return;
    }

    std::size_t slash = path_.rfind('/');
    std::string dir =
        slash == std::string::npos ? "." : path_.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        if (::fsync(dfd) != 0)
            warn("checkpoint: fsync directory %s failed; the "
                 "rename may not survive power loss", dir.c_str());
        ::close(dfd);
    }
}

} // namespace fscache
