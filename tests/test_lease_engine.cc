/**
 * @file
 * Lease-engine policy tests through a fake slot transport: no fork,
 * no sockets, no backoff — every scenario runs in-process in
 * milliseconds. The fake's slots are scripted peers that greet,
 * answer leases, hang or die on cue, so the engine's decisions (the
 * no-progress cap and what counts as progress, the startup deadline,
 * HELLO verification, kill marks and poison quarantine,
 * front-of-queue requeue) are pinned exactly, for both the local
 * (process) and the TCP (net) slot policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <poll.h>

#include "common/net.hh"
#include "runner/lease_engine.hh"
#include "runner/net_executor.hh"
#include "runner/proc_executor.hh"

namespace fscache
{
namespace
{

constexpr std::uint64_t kFp = 0x5eedf00dcafe1234ull;

/** Scripted in-process peers; see file comment. */
class FakeSlots : public SlotTransport
{
  public:
    explicit FakeSlots(std::size_t n)
        : open_(n, false), dead_(n, false), inbox_(n)
    {
    }

    /** Fingerprint every peer greets with. */
    std::uint64_t helloFp = kFp;
    /** Peers die before greeting. */
    bool dieAtStart = false;
    /** Peers hang before greeting. */
    bool silent = false;
    /** A peer dies when leased a cell this returns true for. */
    std::function<bool(std::size_t)> diesOn;
    /** What close() reports ("" for a TCP-like transport). */
    std::string deathName;

    unsigned opens = 0;
    std::vector<std::size_t> leased; ///< every LEASE, in order

    std::size_t slots() const override { return open_.size(); }

    bool
    open(std::size_t s) override
    {
        ++opens;
        open_[s] = true;
        dead_[s] = dieAtStart;
        if (!dieAtStart && !silent)
            inbox_[s] = encodeFrame(netwire::encodeHello(helloFp, 64));
        return true;
    }

    std::string
    close(std::size_t s, std::uint64_t) override
    {
        open_[s] = false;
        dead_[s] = false;
        inbox_[s].clear();
        return deathName;
    }

    std::string
    name(std::size_t s) const override
    {
        return "fake " + std::to_string(s);
    }

    bool
    write(std::size_t s, const std::string &msg) override
    {
        if (netwire::decodeType(msg) != netwire::Type::Lease)
            return true;
        std::size_t cell = 0;
        netwire::decodeLease(msg, cell);
        leased.push_back(cell);
        if (dead_[s])
            return true; // a dead peer swallows what it is sent
        if (diesOn && diesOn(cell)) {
            dead_[s] = true;
            return true;
        }
        CellOutcome<std::string> o;
        o.status = CellStatus::Ok;
        o.attempts = 1;
        o.value.emplace(std::to_string(cell));
        inbox_[s] += encodeFrame(
            netwire::encodeResult(procwire::encodeResult(cell, o)));
        return true;
    }

    void
    wait(int timeout_ms, std::vector<pollfd> &,
         std::vector<std::size_t> &ready) override
    {
        for (std::size_t s = 0; s < open_.size(); ++s)
            if (open_[s] && (dead_[s] || !inbox_[s].empty()))
                ready.push_back(s);
        if (ready.empty() && timeout_ms > 0)
            ::poll(nullptr, 0, std::min(timeout_ms, 10));
    }

    bool
    read(std::size_t s, FrameReader &rd) override
    {
        if (inbox_[s].empty())
            return !dead_[s];
        rd.feed(inbox_[s].data(), inbox_[s].size());
        inbox_[s].clear();
        return true;
    }

  private:
    std::vector<bool> open_;
    std::vector<bool> dead_;
    std::vector<std::string> inbox_;
};

LeaseConfig
config(ExecutorKind kind, unsigned poison, unsigned window = 1)
{
    LeaseConfig cfg;
    cfg.kind = kind;
    cfg.poisonKills = poison;
    cfg.leaseWindow = window;
    cfg.backoffMs = 0;
    return cfg;
}

/** Submit cells [0, n) and step until idle or exhausted, waiting up
 *  to `timeout_ms` per step (-1: until the engine's next deadline). */
std::map<std::size_t, CellOutcome<std::string>>
drive(LeaseEngine &engine, std::size_t n, int timeout_ms = 0)
{
    for (std::size_t i = 0; i < n; ++i)
        engine.submit(i);
    std::map<std::size_t, CellOutcome<std::string>> out;
    LeaseEngine::Done done;
    std::vector<pollfd> none;
    for (int round = 0;
         round < 10000 && !engine.idle() && !engine.exhausted(); ++round)
        engine.step(timeout_ms, none, done);
    for (auto &[cell, o] : done) {
        EXPECT_EQ(out.count(cell), 0u) << "cell resolved twice: " << cell;
        out[cell] = std::move(o);
    }
    return out;
}

TEST(LeaseEngine, NoProgressEndsInFarmStalled)
{
    // Workers that die before greeting never take a lease: each slot
    // is lost 4 + FS_POISON_KILLS times in a row, then abandoned, and
    // the exhausted farm fails what is left instead of respawning
    // forever.
    FakeSlots fake(2);
    fake.dieAtStart = true;
    fake.deathName = "exit:127";
    LeaseEngine engine(fake, config(ExecutorKind::Process, 1), kFp);
    auto out = drive(engine, 3);
    EXPECT_TRUE(engine.exhausted());
    EXPECT_TRUE(engine.idle());
    EXPECT_EQ(fake.opens, 2u * (4 + 1));
    EXPECT_TRUE(fake.leased.empty());
    ASSERT_EQ(out.size(), 3u);
    for (auto &[cell, o] : out) {
        EXPECT_EQ(o.status, CellStatus::Failed) << cell;
        EXPECT_EQ(failureLabel(o), "crash:farm-stalled") << cell;
        EXPECT_EQ(o.attempts, 1u) << cell;
    }
}

TEST(LeaseEngine, WorkerThatNeverGreetsMissesItsDeadline)
{
    // A worker wedged before its HELLO holds no lease, so only the
    // startup deadline (FS_WORKER_HARD_TIMEOUT_MS) ends it: each hang
    // is a loss, and the no-progress cap still gives up on the farm.
    FakeSlots fake(1);
    fake.silent = true;
    LeaseConfig cfg = config(ExecutorKind::Process, 1);
    cfg.hardTimeoutMs = 1;
    LeaseEngine engine(fake, cfg, kFp);
    auto out = drive(engine, 2, -1);
    EXPECT_TRUE(engine.exhausted());
    EXPECT_EQ(fake.opens, 4u + 1u);
    EXPECT_TRUE(fake.leased.empty());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(failureLabel(out[0]), "crash:farm-stalled");
}

TEST(LeaseEngine, QuarantineIsProgressOnlyForALocalSlot)
{
    // Local: five crashing cells in a row on one worker are five
    // quarantines, not five strikes against the slot. The crash is the
    // cell's fault, so the sweep goes on and every later cell runs.
    FakeSlots local(1);
    local.diesOn = [](std::size_t cell) { return cell < 5; };
    local.deathName = "SIGSEGV";
    LeaseEngine farm(local, config(ExecutorKind::Process, 1), kFp);
    auto out = drive(farm, 8);
    EXPECT_FALSE(farm.exhausted());
    ASSERT_EQ(out.size(), 8u);
    for (std::size_t cell = 0; cell < 8; ++cell) {
        if (cell < 5)
            EXPECT_EQ(failureLabel(out[cell]), "crash:SIGSEGV") << cell;
        else
            EXPECT_TRUE(out[cell].ok()) << cell;
    }

    // TCP: a host that drops every lease is the host's fault. It is
    // abandoned after 4 + FS_POISON_KILLS losses however many cells it
    // quarantined on the way, leaving the rest to the local fallback.
    FakeSlots tcp(1);
    tcp.diesOn = [](std::size_t) { return true; };
    LeaseEngine coord(tcp, config(ExecutorKind::Net, 2), kFp);
    out = drive(coord, 8);
    EXPECT_TRUE(coord.exhausted());
    EXPECT_EQ(tcp.opens, 4u + 2u);
    ASSERT_EQ(out.size(), 3u);
    for (auto &[cell, o] : out) {
        EXPECT_LT(cell, 3u);
        EXPECT_EQ(failureLabel(o), "crash:netdrop") << cell;
        EXPECT_EQ(o.attempts, 2u) << cell;
    }
}

TEST(LeaseEngine, ForeignHelloIsALocalDeathButAbandonsAHost)
{
    // A local worker that greets with another sweep's fingerprint is
    // a death like any other: it is retried until the no-progress
    // cap gives up on the slot.
    FakeSlots local(1);
    local.helloFp = kFp ^ 1;
    LeaseEngine farm(local, config(ExecutorKind::Process, 2), kFp);
    auto out = drive(farm, 2);
    EXPECT_TRUE(farm.exhausted());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(failureLabel(out[0]), "crash:farm-stalled");
    EXPECT_EQ(local.opens, 4u + 2u);
    EXPECT_TRUE(local.leased.empty());

    // A host serving a different sweep is config skew, which no retry
    // heals: abandoned at once, leaving the cells for the caller's
    // local fallback.
    FakeSlots tcp(1);
    tcp.helloFp = kFp ^ 1;
    LeaseEngine coord(tcp, config(ExecutorKind::Net, 2), kFp);
    out = drive(coord, 2);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(coord.exhausted());
    EXPECT_FALSE(coord.idle());
    EXPECT_EQ(tcp.opens, 1u);
    EXPECT_TRUE(tcp.leased.empty());
}

TEST(LeaseEngine, RequeueThenQuarantineCountsAttempts)
{
    // Cell 1 kills every slot it is leased to. It is requeued until it
    // has FS_POISON_KILLS marks, then quarantined under the death's
    // name with the mark count in attempts; every other cell is fine.
    for (ExecutorKind kind : {ExecutorKind::Process, ExecutorKind::Net}) {
        FakeSlots fake(1);
        fake.diesOn = [](std::size_t cell) { return cell == 1; };
        fake.deathName = kind == ExecutorKind::Process ? "SIGSEGV" : "";
        LeaseEngine engine(fake, config(kind, 3), kFp);
        auto out = drive(engine, 4);
        ASSERT_EQ(out.size(), 4u);
        const CellOutcome<std::string> &bad = out[1];
        EXPECT_EQ(bad.status, CellStatus::Failed);
        EXPECT_EQ(bad.errorClass, ErrorClass::Crash);
        EXPECT_EQ(failureLabel(bad), kind == ExecutorKind::Process
                                         ? "crash:SIGSEGV"
                                         : "crash:netdrop");
        EXPECT_EQ(bad.attempts, 3u);
        for (std::size_t cell : {0u, 2u, 3u})
            EXPECT_TRUE(out[cell].ok()) << cell;
        EXPECT_EQ(fake.leased,
                  (std::vector<std::size_t>{0, 1, 1, 1, 2, 3}));
    }
}

TEST(LeaseEngine, RequeuedCellsGoToTheFrontInLeaseOrder)
{
    // Local: the suspect cell is settled before any fresh one.
    FakeSlots local(1);
    bool died = false;
    local.diesOn = [&died](std::size_t cell) {
        if (cell != 1 || died)
            return false;
        return died = true;
    };
    LeaseEngine farm(local, config(ExecutorKind::Process, 2), kFp);
    auto out = drive(farm, 4);
    ASSERT_EQ(out.size(), 4u);
    for (auto &[cell, o] : out)
        EXPECT_TRUE(o.ok()) << cell;
    EXPECT_EQ(local.leased, (std::vector<std::size_t>{0, 1, 1, 2, 3}));

    // Net, window 2: a host lost holding leases 0 and 1 requeues both
    // at the front, still in lease order.
    FakeSlots tcp(1);
    died = false;
    tcp.diesOn = [&died](std::size_t cell) {
        if (cell != 0 || died)
            return false;
        return died = true;
    };
    LeaseEngine coord(tcp, config(ExecutorKind::Net, 2, 2), kFp);
    out = drive(coord, 4);
    ASSERT_EQ(out.size(), 4u);
    for (auto &[cell, o] : out)
        EXPECT_TRUE(o.ok()) << cell;
    EXPECT_EQ(tcp.leased, (std::vector<std::size_t>{0, 1, 0, 1, 2, 3}));
}

} // namespace
} // namespace fscache
