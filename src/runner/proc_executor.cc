#include "runner/proc_executor.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/errors.hh"
#include "common/log.hh"
#include "common/net.hh"
#include "runner/checkpoint.hh"
#include "runner/lease_engine.hh"
#include "runner/net_executor.hh"

namespace fscache
{

namespace
{

/** Hidden re-entry flag; the value is the farmed sweep's
 *  fingerprint so a multi-sweep driver knows which of its sweeps to
 *  serve (foreign ones recompute inline; see sweep_runner.hh). */
const char kWorkerFlagPrefix[] = "--fs-worker=";

/** Hidden net-agent flag; the value is the TCP listen port (0 =
 *  ephemeral). Stripped from g_argv so the agent's own re-exec'd
 *  farm workers never become agents themselves. */
const char kAgentFlagPrefix[] = "--fs-agent=";

/** A worker reads requests on stdin and writes results here. */
constexpr int kResultFd = 3;

/** Frame `msg` onto pipe `fd`; false once its reader is gone.
 *  EINTR/short-write safe. */
bool
writeFrame(int fd, const std::string &msg)
{
    const std::string frame = encodeFrame(msg);
    for (std::size_t at = 0; at < frame.size();) {
        ssize_t n = ::write(fd, frame.data() + at, frame.size() - at);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        at += static_cast<std::size_t>(n);
    }
    return true;
}

/** argv captured by procExecutorInit(), hidden flags stripped. */
std::vector<std::string> g_argv;        // NOLINT: process-lifetime
std::string g_exePath;                  // NOLINT: process-lifetime
bool g_initDone = false;
bool g_workerMode = false;
std::uint64_t g_workerFingerprint = 0;
bool g_agentMode = false;
std::uint16_t g_agentPort = 0;

} // namespace

ExecutorKind
executorKindFromEnv()
{
    const char *env = std::getenv("FS_EXECUTOR");
    if (env == nullptr || *env == '\0' ||
        std::strcmp(env, "thread") == 0)
        return ExecutorKind::Thread;
    if (std::strcmp(env, "process") == 0)
        return ExecutorKind::Process;
    if (std::strcmp(env, "net") == 0)
        return ExecutorKind::Net;
    fatal("FS_EXECUTOR must be \"thread\", \"process\", or "
          "\"net\", got \"%s\"", env);
}

void
procExecutorInit(int *argc, char **argv)
{
    if (g_initDone)
        return;
    g_initDone = true;

    // Workers re-exec the real binary, not whatever relative path
    // the user typed (the farm must survive a driver that chdirs).
    char exe[4096];
    ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
        exe[n] = '\0';
        g_exePath = exe;
    } else {
        g_exePath = argv[0];
    }

    // The value of `prefix`<number> in `arg` (fatal if malformed or
    // above `max`), or false when `arg` is some other argument.
    auto flag = [](const char *arg, const char *prefix, int base,
                   unsigned long long max, auto &value) {
        const std::size_t len = std::strlen(prefix);
        if (std::strncmp(arg, prefix, len) != 0)
            return false;
        char *end = nullptr;
        unsigned long long v = std::strtoull(arg + len, &end, base);
        if (end == arg + len || *end != '\0' || v > max)
            fatal("malformed %s flag: \"%s\"", prefix, arg);
        value = static_cast<std::remove_reference_t<decltype(value)>>(v);
        return true;
    };
    int out = 0;
    for (int i = 0; i < *argc; ++i) {
        // Strip both: the driver's parser never sees them, and an
        // agent's re-exec'd workers must not become agents.
        if (flag(argv[i], kWorkerFlagPrefix, 16, ~0ull,
                 g_workerFingerprint))
            g_workerMode = true;
        else if (flag(argv[i], kAgentFlagPrefix, 10, 65535, g_agentPort))
            g_agentMode = true;
        else
            argv[out++] = argv[i];
    }
    *argc = out;
    argv[out] = nullptr;
    g_argv.assign(argv, argv + out);
}

bool
procWorkerMode()
{
    return g_workerMode;
}

bool
netAgentMode()
{
    return g_agentMode;
}

std::uint16_t
netAgentPort()
{
    return g_agentPort;
}

std::uint64_t
procWorkerFingerprint()
{
    return g_workerFingerprint;
}

namespace procwire
{

std::string
encodeResult(std::size_t cell, const CellOutcome<std::string> &o)
{
    CellEncoder enc;
    enc.u64(kVersion)
        .u64(cell)
        .u64(static_cast<std::uint64_t>(o.status))
        .u64(static_cast<std::uint64_t>(o.errorClass))
        .u64(o.attempts)
        .str(o.error)
        .str(o.detail)
        .str(o.crashSignal)
        .u64(o.value.has_value() ? 1 : 0)
        .str(o.value.has_value() ? *o.value : std::string());
    return enc.result();
}

void
decodeResult(const std::string &line, std::size_t &cell,
             CellOutcome<std::string> &o)
{
    CellDecoder dec(line);
    std::uint64_t version = dec.u64();
    if (version != kVersion)
        throw FsError(strprintf(
            "farm protocol version mismatch: got %llu, want %llu",
            static_cast<unsigned long long>(version),
            static_cast<unsigned long long>(kVersion)));
    cell = static_cast<std::size_t>(dec.u64());
    std::uint64_t status = dec.u64();
    if (status > static_cast<std::uint64_t>(CellStatus::TimedOut))
        throw FsError("farm cell result: bad status");
    std::uint64_t cls = dec.u64();
    if (cls > static_cast<std::uint64_t>(ErrorClass::HardTimeout))
        throw FsError("farm cell result: bad error class");
    o = CellOutcome<std::string>{};
    o.status = static_cast<CellStatus>(status);
    o.errorClass = static_cast<ErrorClass>(cls);
    o.attempts = static_cast<unsigned>(dec.u64());
    o.error = dec.str();
    o.detail = dec.str();
    o.crashSignal = dec.str();
    bool has_value = dec.u64() != 0;
    std::string payload = dec.str();
    if (has_value)
        o.value.emplace(std::move(payload));
    if (!dec.done())
        throw FsError("farm cell result has trailing tokens");
}

} // namespace procwire

void
serveCellsAsWorker(
    std::size_t cells, std::uint64_t fingerprint,
    const std::function<CellOutcome<std::string>(std::size_t)>
        &run_cell)
{
    FrameReader rd;
    std::string msg;
    bool up = writeFrame(kResultFd, netwire::encodeHello(fingerprint, cells));
    while (up) {
        FrameReader::Status st = rd.next(msg);
        if (st == FrameReader::Status::NeedMore) {
            // EOF: the engine is done with us.
            up = recvInto(STDIN_FILENO, rd);
            continue;
        }
        std::size_t cell = 0;
        try {
            if (st == FrameReader::Status::Corrupt)
                throw FsError("corrupt frame");
            if (netwire::decodeType(msg) == netwire::Type::Release)
                break;
            netwire::decodeLease(msg, cell);
            if (cell >= cells)
                throw FsError(strprintf("cell %zu out of range (%zu "
                                        "cells)", cell, cells));
        } catch (const std::exception &e) {
            fatal("farm worker: bad request: %s", e.what());
        }
        up = writeFrame(kResultFd, netwire::encodeResult(procwire::encodeResult(
                                        cell, run_cell(cell))));
    }
    std::_Exit(0);
}

namespace
{

/** Worker processes over pipes; see makeLocalSlots(). */
class LocalSlots final : public FdSlots
{
  public:
    LocalSlots(std::uint64_t fingerprint, std::size_t n)
        : FdSlots(n), pids_(n, -1), cmd_(n, -1),
          flag_(strprintf("--fs-worker=%016llx",
                          static_cast<unsigned long long>(fingerprint)))
    {
        // A worker can die between our poll() and our write(); EPIPE
        // as a return value is part of the protocol, SIGPIPE is not.
        struct sigaction ign
        {
        };
        ign.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ign, &prevPipe_);
    }

    ~LocalSlots() override { ::sigaction(SIGPIPE, &prevPipe_, nullptr); }

    bool
    open(std::size_t s) override
    {
        int cmd[2];
        int res[2];
        if (::pipe2(cmd, O_CLOEXEC) != 0)
            return false;
        if (::pipe2(res, O_CLOEXEC) != 0) {
            ::close(cmd[0]);
            ::close(cmd[1]);
            return false;
        }
        std::vector<std::string> args = g_argv;
        args.push_back(flag_);
        std::vector<char *> cargv;
        for (std::string &a : args)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        pid_t pid = ::fork();
        if (pid == 0) {
            // Child: lift the pipe ends clear of fds 0-3 (F_DUPFD
            // drops close-on-exec), then requests on stdin, results
            // on fd 3, stdout to /dev/null because the worker re-runs
            // the driver's main() banners and all, stderr kept for
            // crash breadcrumbs. Exec failure shows up as exit:127.
            int in = ::fcntl(cmd[0], F_DUPFD, 10);
            int out = ::fcntl(res[1], F_DUPFD, 10);
            int devnull = ::open("/dev/null", O_WRONLY);
            if (in >= 0 && out >= 0 && devnull >= 0 &&
                ::dup2(in, STDIN_FILENO) >= 0 &&
                ::dup2(devnull, STDOUT_FILENO) >= 0 &&
                ::dup2(out, kResultFd) >= 0)
                ::execv(g_exePath.c_str(), cargv.data());
            std::_Exit(127);
        }
        ::close(cmd[0]);
        ::close(res[1]);
        if (pid < 0) {
            ::close(cmd[1]);
            ::close(res[0]);
            return false;
        }
        pids_[s] = pid;
        cmd_[s] = cmd[1];
        fds_[s] = res[0];
        return true;
    }

    bool
    write(std::size_t s, const std::string &msg) override
    {
        return writeFrame(cmd_[s], msg);
    }

    std::string
    close(std::size_t s, std::uint64_t kill_at_ns) override
    {
        ::close(cmd_[s]);
        ::close(fds_[s]);
        cmd_[s] = fds_[s] = -1;
        const pid_t pid = pids_[s];
        pids_[s] = -1;
        if (pid <= 0)
            return ""; // never kill(-1, ...)
        // Closing its pipes tells a live worker to exit; SIGKILL it
        // at `kill_at_ns` so a wedge cannot hang us. A worker that
        // already died keeps its own exit status.
        int st = 0;
        pid_t r;
        while ((r = ::waitpid(pid, &st, WNOHANG)) == 0 ||
               (r < 0 && errno == EINTR)) {
            if (r == 0 && detail::guardNowNs() >= kill_at_ns)
                ::kill(pid, SIGKILL);
            ::poll(nullptr, 0, 1);
        }
        if (r < 0)
            return "lost";
        if (!WIFSIGNALED(st))
            return strprintf("exit:%d", WEXITSTATUS(st));
        // Stable tokens for FAILED(crash:...) markers ("SIGSEGV");
        // strsignal() is locale-dependent prose.
        const char *abbrev = ::sigabbrev_np(WTERMSIG(st));
        return abbrev != nullptr ? strprintf("SIG%s", abbrev)
                                 : strprintf("SIG%d", WTERMSIG(st));
    }

    std::string
    name(std::size_t s) const override
    {
        return strprintf("worker %zu", s);
    }

  private:
    std::vector<pid_t> pids_;
    std::vector<int> cmd_; ///< request pipe write ends
    std::string flag_;
    struct sigaction prevPipe_
    {
    };
};

} // namespace

std::unique_ptr<SlotTransport>
makeLocalSlots(std::uint64_t fingerprint, std::size_t n)
{
    return std::make_unique<LocalSlots>(fingerprint,
                                        std::max<std::size_t>(n, 1));
}

} // namespace fscache
