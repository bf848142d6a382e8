#include "runner/lease_engine.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <memory>

#include "common/arg_parser.hh"
#include "common/errors.hh"
#include "common/log.hh"
#include "runner/net_executor.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{

namespace
{

constexpr std::uint64_t kMs = 1000000ull;
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/** A cell the engine gave up on: a crash (`how` names it) or,
 *  with an empty `how`, a hard timeout. */
CellOutcome<std::string>
failed(const std::string &how, std::string error, unsigned attempts)
{
    CellOutcome<std::string> o;
    o.status = how.empty() ? CellStatus::TimedOut : CellStatus::Failed;
    o.errorClass = how.empty() ? ErrorClass::HardTimeout : ErrorClass::Crash;
    o.crashSignal = how;
    o.error = std::move(error);
    o.attempts = attempts;
    return o;
}

} // namespace

LeaseConfig
LeaseConfig::fromEnv(ExecutorKind kind)
{
    LeaseConfig c;
    c.kind = kind;
    c.backoffMs = envKnob<std::uint64_t>("FS_WORKER_BACKOFF_MS", 25);
    if (c.local()) {
        c.workers = envKnob<unsigned>("FS_WORKERS", 0);
        if (c.workers == 0)
            c.workers = SweepRunner::defaultJobs();
        c.hardTimeoutMs =
            envKnob<std::uint64_t>("FS_WORKER_HARD_TIMEOUT_MS", 0);
        c.poisonKills = envKnob<unsigned>("FS_POISON_KILLS", 1, 1);
        return c;
    }
    const char *hosts = std::getenv("FS_HOSTS");
    if (hosts == nullptr || *hosts == '\0')
        fatal("FS_EXECUTOR=net needs FS_HOSTS=host:port,...");
    if (!parseHostList(hosts, c.hosts))
        fatal("FS_HOSTS \"%s\" is not a host:port,... list", hosts);
    c.hostTimeoutMs =
        envKnob<std::uint64_t>("FS_HOST_TIMEOUT_MS", 10000, 1);
    c.leaseWindow = envKnob<unsigned>("FS_LEASE_WINDOW", 2, 1);
    c.leaseTimeoutMs = envKnob<std::uint64_t>("FS_LEASE_TIMEOUT_MS", 0);
    c.poisonKills = envKnob<unsigned>("FS_POISON_KILLS", 2, 1);
    c.connectTimeoutMs =
        envKnob<std::uint64_t>("FS_CONNECT_TIMEOUT_MS", 1000, 1);
    return c;
}

void
FdSlots::wait(int timeout_ms, std::vector<pollfd> &extra,
              std::vector<std::size_t> &ready)
{
    std::vector<pollfd> fds(extra);
    for (int fd : fds_)
        fds.push_back({fd, POLLIN, 0}); // poll(2) skips closed (-1) slots
    int n;
    do {
        n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   timeout_ms);
    } while (n < 0 && errno == EINTR);
    for (std::size_t i = 0; i < fds.size(); ++i) {
        short revents = n > 0 ? fds[i].revents : 0;
        if (i < extra.size())
            extra[i].revents = revents;
        else if (revents != 0)
            ready.push_back(i - extra.size());
    }
}

LeaseEngine::LeaseEngine(SlotTransport &transport,
                         const LeaseConfig &cfg,
                         std::uint64_t fingerprint)
    : t_(transport), cfg_(cfg), fingerprint_(fingerprint),
      slots_(transport.slots())
{
}

LeaseEngine::~LeaseEngine()
{
    // RELEASE everyone first so workers and agents exit in
    // parallel, then reap them under one shared 2 s grace. A failed
    // send means the peer is gone.
    for (std::size_t s = 0; s < slots_.size(); ++s)
        if (open(s))
            (void)t_.write(s, netwire::encodeRelease());
    const std::uint64_t grace = detail::guardNowNs() + 2000 * kMs;
    for (std::size_t s = 0; s < slots_.size(); ++s)
        if (open(s))
            t_.close(s, grace);
}

bool
LeaseEngine::open(std::size_t s) const
{
    return slots_[s].state == Slot::State::Hello ||
           slots_[s].state == Slot::State::Ready;
}

bool
LeaseEngine::idle() const
{
    if (!pending_.empty())
        return false;
    return std::all_of(slots_.begin(), slots_.end(),
                       [](const Slot &sl) { return sl.leases.empty(); });
}

bool
LeaseEngine::exhausted() const
{
    return std::all_of(slots_.begin(), slots_.end(), [](const Slot &sl) {
        return sl.state == Slot::State::Abandoned;
    });
}

void
LeaseEngine::step(int timeout_ms, std::vector<pollfd> &extra,
                  Done &done)
{
    std::uint64_t now = detail::guardNowNs();
    std::uint64_t wake =
        timeout_ms < 0 ? kNever
                       : now + static_cast<std::uint64_t>(timeout_ms) * kMs;
    const std::size_t resolved = done.size();
    for (std::size_t s = 0; s < slots_.size(); ++s)
        tend(s, now, wake, done);
    if (done.size() > resolved || (exhausted() && !pending_.empty()))
        wake = now; // hand back what tend() resolved or stranded
    for (const Slot &sl : slots_)
        if (sl.state == Slot::State::Closed && !pending_.empty())
            wake = std::min(wake, sl.retryAtNs);

    int wait_ms = -1;
    if (wake != kNever)
        wait_ms = wake <= now ? 0
                              : static_cast<int>(std::min<std::uint64_t>(
                                    (wake - now) / kMs + 1, 1u << 30));
    std::vector<std::size_t> ready;
    t_.wait(wait_ms, extra, ready);
    now = detail::guardNowNs();
    for (std::size_t s : ready) {
        Slot &sl = slots_[s];
        if (!open(s))
            continue;
        if (!t_.read(s, sl.rd)) {
            lose(s, "netdrop", false, done);
            continue;
        }
        sl.lastRecvNs = now;
        std::string msg;
        FrameReader::Status st = FrameReader::Status::NeedMore;
        while (open(s) &&
               (st = sl.rd.next(msg)) == FrameReader::Status::Frame)
            receive(s, msg, done);
        if (open(s) && st == FrameReader::Status::Corrupt) {
            warn("lease engine: corrupt frame from %s",
                 t_.name(s).c_str());
            lose(s, "netdrop", false, done);
        }
    }
    if (exhausted() && cfg_.local()) {
        // The no-progress cap: with every worker slot abandoned,
        // fail what is left instead of respawning forever.
        for (std::size_t cell : pending_)
            done.emplace_back(
                cell, failed("farm-stalled",
                             "farm stalled: every slot was lost "
                             "repeatedly with no completed cell",
                             std::max(kills_[cell], 1u)));
        pending_.clear();
    }
}

/**
 * Everything a slot needs before the wait: (re)open it, lease to it,
 * enforce its deadlines and heartbeat, and lower `wake` to its next
 * timer.
 */
void
LeaseEngine::tend(std::size_t s, std::uint64_t now, std::uint64_t &wake,
                  Done &done)
{
    Slot &sl = slots_[s];
    if (sl.state == Slot::State::Closed && !pending_.empty() &&
        sl.retryAtNs <= now) {
        if (!t_.open(s)) {
            lose(s, "unreachable", false, done);
            return;
        }
        sl.state = Slot::State::Hello;
        sl.rd = FrameReader{};
        sl.lastRecvNs = sl.lastPingNs = now;
    }
    if (!open(s))
        return;

    const std::uint64_t budget_ms =
        cfg_.local() ? cfg_.hardTimeoutMs : cfg_.leaseTimeoutMs;
    while (sl.state == Slot::State::Ready &&
           sl.leases.size() < cfg_.leaseWindow && !pending_.empty()) {
        std::size_t cell = pending_.front();
        if (!t_.write(s, netwire::encodeLease(cell))) {
            lose(s, "netdrop", false, done);
            return;
        }
        pending_.pop_front();
        sl.leases.push_back({cell, budget_ms > 0 ? now + budget_ms * kMs : 0});
    }

    bool expired = false;
    for (const Lease &l : sl.leases) {
        if (l.deadlineNs != 0 && now >= l.deadlineNs)
            expired = true;
        else if (l.deadlineNs != 0)
            wake = std::min(wake, l.deadlineNs);
    }
    if (expired && cfg_.local()) {
        // A wedged cell stays wedged: kill the worker, fail the cell
        // for good. The loss is the cell's, not the slot's, so any
        // other lease on the worker is requeued unmarked.
        const std::string why = strprintf(
            "worker SIGKILLed after exceeding "
            "FS_WORKER_HARD_TIMEOUT_MS=%llu",
            static_cast<unsigned long long>(cfg_.hardTimeoutMs));
        for (auto l = sl.leases.rbegin(); l != sl.leases.rend(); ++l) {
            if (now >= l->deadlineNs)
                done.emplace_back(l->cell,
                                  failed("", why, kills_[l->cell] + 1));
            else
                pending_.push_front(l->cell);
        }
        sl.leases.clear();
        t_.close(s, 0);
        sl.state = Slot::State::Closed;
        sl.losses = 0; // a resolved cell is progress
        sl.retryAtNs = now;
        return;
    }
    if (expired) {
        lose(s, "stall", false, done);
        return;
    }
    if (cfg_.local()) {
        // A worker holds no lease until it greets, so its startup
        // gets the same budget as a cell.
        if (sl.state == Slot::State::Hello && cfg_.hardTimeoutMs > 0) {
            const std::uint64_t greet_by =
                sl.lastRecvNs + cfg_.hardTimeoutMs * kMs;
            if (now >= greet_by) {
                lose(s, "hard-timeout", false, done);
                return;
            }
            wake = std::min(wake, greet_by);
        }
        return;
    }
    // Heartbeat: any traffic proves life; PING when quiet.
    const std::uint64_t timeout = cfg_.hostTimeoutMs * kMs;
    const std::uint64_t ping =
        std::max<std::uint64_t>(cfg_.hostTimeoutMs / 3, 1) * kMs;
    if (now - sl.lastRecvNs >= timeout) {
        lose(s, "host-timeout", false, done);
        return;
    }
    if (sl.state == Slot::State::Ready && now - sl.lastPingNs >= ping) {
        if (!t_.write(s, netwire::encodePing())) {
            lose(s, "netdrop", false, done);
            return;
        }
        sl.lastPingNs = now;
    }
    wake = std::min({wake, sl.lastRecvNs + timeout, sl.lastPingNs + ping});
}

void
LeaseEngine::receive(std::size_t s, const std::string &msg, Done &done)
{
    Slot &sl = slots_[s];
    try {
        netwire::Type type = netwire::decodeType(msg);
        if (sl.state == Slot::State::Hello) {
            if (type != netwire::Type::Hello)
                throw FsError("spoke before HELLO");
            std::uint64_t fp = 0;
            std::size_t cells = 0;
            netwire::decodeHello(msg, fp, cells);
            if (fp != fingerprint_)
                throw FsError(strprintf(
                    "serves sweep %016llx, want %016llx (config skew?)",
                    static_cast<unsigned long long>(fp),
                    static_cast<unsigned long long>(fingerprint_)));
            sl.state = Slot::State::Ready;
            return;
        }
        if (type == netwire::Type::Pong)
            return; // lastRecvNs is already fresh
        if (type != netwire::Type::Result)
            throw FsError("unexpected message type");
        std::string line;
        std::size_t cell = 0;
        CellOutcome<std::string> o;
        netwire::decodeResult(msg, line);
        procwire::decodeResult(line, cell, o);
        auto it = std::find_if(sl.leases.begin(), sl.leases.end(),
                               [cell](const Lease &l) {
                                   return l.cell == cell;
                               });
        if (it == sl.leases.end()) {
            warn("lease engine: %s answered unleased cell %zu; "
                 "dropping", t_.name(s).c_str(), cell);
            return;
        }
        sl.leases.erase(it);
        sl.losses = 0;
        done.emplace_back(cell, std::move(o));
    } catch (const std::exception &e) {
        warn("lease engine: %s: %s", t_.name(s).c_str(), e.what());
        const bool greeting = sl.state == Slot::State::Hello;
        lose(s, greeting ? "bad-hello" : "netdrop", greeting, done);
    }
}

/**
 * Slot `s` is lost (`why`: netdrop, host-timeout, stall, ...): close
 * it, kill-mark its leases, and back off or abandon it. A foreign
 * greeting abandons a TCP slot at once but costs a local slot only
 * one of its lives.
 */
void
LeaseEngine::lose(std::size_t s, const std::string &why, bool foreign,
                  Done &done)
{
    Slot &sl = slots_[s];
    const std::string who = t_.name(s);
    // Its leases are kill-marked below, so a live worker need not
    // be given a grace.
    std::string how = open(s) ? t_.close(s, 0) : "";
    if (how.empty())
        how = why;
    bool quarantined = false;
    // Back to front, so requeued cells keep their lease order.
    for (auto l = sl.leases.rbegin(); l != sl.leases.rend(); ++l)
        quarantined |= killMark(l->cell, how, who, done);
    sl.leases.clear();
    sl.state = Slot::State::Closed;
    sl.losses = quarantined && cfg_.local() ? 0 : sl.losses + 1;
    if ((foreign && !cfg_.local()) || sl.losses >= 4 + cfg_.poisonKills) {
        warn("lease engine: abandoning %s (%u consecutive losses, "
             "last: %s)", who.c_str(), sl.losses, how.c_str());
        sl.state = Slot::State::Abandoned;
        return;
    }
    sl.retryAtNs = detail::guardNowNs() +
                   detail::backoffMs(cfg_.backoffMs, sl.losses) * kMs;
}

/** Requeue `cell` or, at its FS_POISON_KILLS-th mark, quarantine
 *  it; true if it was quarantined. */
bool
LeaseEngine::killMark(std::size_t cell, const std::string &how,
                      const std::string &who, Done &done)
{
    unsigned k = ++kills_[cell];
    if (k < cfg_.poisonKills) {
        // Front of the queue: settle the suspect cell before any
        // fresh one.
        pending_.push_front(cell);
        return false;
    }
    done.emplace_back(
        cell, failed(how,
                     strprintf("%s lost (%s) running cell %zu%s",
                               who.c_str(), how.c_str(), cell,
                               k > 1 ? "; poison cell quarantined" : ""),
                     k));
    return true;
}

std::map<std::size_t, CellOutcome<std::string>>
runFarm(ExecutorKind kind, const std::vector<std::size_t> &missing,
        std::uint64_t fingerprint,
        const std::function<void(std::size_t, const std::string &)>
            &on_payload)
{
    std::map<std::size_t, CellOutcome<std::string>> out;
    if (missing.empty())
        return out;
    const LeaseConfig cfg = LeaseConfig::fromEnv(kind);
    std::unique_ptr<SlotTransport> transport =
        cfg.local() ? makeLocalSlots(fingerprint,
                                     std::min<std::size_t>(
                                         cfg.workers, missing.size()))
                    : makeTcpSlots(cfg);
    LeaseEngine engine(*transport, cfg, fingerprint);
    for (std::size_t cell : missing)
        engine.submit(cell);
    LeaseEngine::Done done;
    std::vector<pollfd> none;
    do {
        engine.step(-1, none, done);
        for (auto &[cell, o] : done) {
            if (o.ok() && on_payload)
                on_payload(cell, *o.value);
            out[cell] = std::move(o);
        }
        done.clear();
    } while (!engine.idle() && !engine.exhausted());
    if (out.size() < missing.size())
        warn("net farm: all %zu hosts unreachable or abandoned; "
             "finishing %zu remaining cells on the local executor",
             cfg.hosts.size(), missing.size() - out.size());
    return out;
}

} // namespace fscache
