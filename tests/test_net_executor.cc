/**
 * @file
 * Multi-host net-farm executor tests: CRC framing, host-list
 * parsing, netwire codec versioning, clean-run byte identity with
 * the serial path over a loopback agent farm, netdrop/stall fault
 * containment, host death mid-cell (lease requeue to a survivor),
 * all-hosts-down graceful degradation, and checkpoint-journal
 * interop between net and thread executors.
 *
 * This binary has its own main(): under FS_EXECUTOR=net the
 * coordinator talks to agents that are the *driver* binary re-exec'd
 * with --fs-agent, and for these tests the driver is the test binary
 * itself. main() routes an agent (or farm-worker) re-entry straight
 * into the shared test sweep and runs gtest otherwise. Agents are
 * spawned with port 0 (ephemeral) and publish their bound port
 * through FS_AGENT_PORT_FILE, so tests never race on fixed ports.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/errors.hh"
#include "common/fault_injection.hh"
#include "common/net.hh"
#include "runner/lease_engine.hh"
#include "runner/net_executor.hh"
#include "runner/proc_executor.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{
namespace
{

constexpr std::size_t kCells = 6;

double
cellValue(std::size_t i)
{
    // Non-representable values so only bit-exact round-trips
    // reproduce them across the wire and the journal.
    return (static_cast<double>(i) + 0.1) / 3.0;
}

std::string
encodeD(double v)
{
    CellEncoder e;
    e.f64(v);
    return e.result();
}

double
decodeD(const std::string &p)
{
    CellDecoder d(p);
    return d.f64();
}

/**
 * The one test sweep, shared verbatim by the gtest coordinator, the
 * re-exec'd agents, and the agents' farm workers.
 * FS_NET_TEST_KILL_AGENT_CELL=<n> makes cell n SIGKILL its farm
 * worker's parent — the *agent* — mid-cell, simulating a host dying
 * while holding a lease.
 */
SweepReport<double>
runTestSweep()
{
    const char *agent_kill =
        std::getenv("FS_NET_TEST_KILL_AGENT_CELL");
    long kill_cell =
        agent_kill != nullptr ? std::atol(agent_kill) : -1;
    SweepRunner runner(2);
    return runner.mapResilientCheckpointed(
        kCells,
        [kill_cell](std::size_t i) -> double {
            if (kill_cell >= 0 &&
                i == static_cast<std::size_t>(kill_cell)) {
                // This runs in a farm *worker*; getppid() is the
                // agent. SIGKILL marks the agent unrunnable before
                // kill() returns, so the result written below can
                // never be forwarded to the coordinator — the lease
                // is genuinely lost.
                ::kill(::getppid(), SIGKILL);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
            return cellValue(i);
        },
        "nettest", "cfg=net", encodeD, decodeD);
}

/** Serial in-process reference payloads, cell order. */
std::vector<std::string>
serialPayloads()
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kCells; ++i)
        out.push_back(encodeD(cellValue(i)));
    return out;
}

/** A length+CRC frame built by hand (little-endian header). */
std::string
mkFrame(const std::string &payload)
{
    auto le32 = [](std::uint32_t v) {
        std::string s(4, '\0');
        s[0] = static_cast<char>(v & 0xff);
        s[1] = static_cast<char>((v >> 8) & 0xff);
        s[2] = static_cast<char>((v >> 16) & 0xff);
        s[3] = static_cast<char>((v >> 24) & 0xff);
        return s;
    };
    return le32(static_cast<std::uint32_t>(payload.size())) +
           le32(crc32(payload.data(), payload.size())) + payload;
}

// ---------------------------------------------------------------
// Framing + host list (no farm involved)
// ---------------------------------------------------------------

TEST(NetFraming, FrameRoundTripsThroughSplitFeeds)
{
    std::string payload = "1 3 s68656c6c6f";
    std::string wire = mkFrame(payload) + mkFrame("second");
    FrameReader rd;
    std::string out;
    EXPECT_EQ(rd.next(out), FrameReader::Status::NeedMore);
    // Byte-at-a-time feeding must never confuse the reader.
    for (std::size_t i = 0; i + 1 < wire.size(); ++i)
        rd.feed(wire.data() + i, 1);
    rd.feed(wire.data() + wire.size() - 1, 1);
    ASSERT_EQ(rd.next(out), FrameReader::Status::Frame);
    EXPECT_EQ(out, payload);
    ASSERT_EQ(rd.next(out), FrameReader::Status::Frame);
    EXPECT_EQ(out, "second");
    EXPECT_EQ(rd.next(out), FrameReader::Status::NeedMore);
}

TEST(NetFraming, CorruptPayloadIsRejectedAndSticky)
{
    std::string wire = mkFrame("payload");
    wire[wire.size() - 1] ^= 0x01; // flip one payload bit
    FrameReader rd;
    rd.feed(wire.data(), wire.size());
    std::string out;
    EXPECT_EQ(rd.next(out), FrameReader::Status::Corrupt);
    // Corrupt is sticky: a stream that failed CRC cannot be
    // trusted again, even if good bytes follow.
    std::string good = mkFrame("after");
    rd.feed(good.data(), good.size());
    EXPECT_EQ(rd.next(out), FrameReader::Status::Corrupt);
}

TEST(NetFraming, Crc32MatchesTheIeeeReference)
{
    // Both ends share crc32(), so round trips cannot catch a wrong
    // one: pin the standard check value and a bitwise reference.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    std::string data;
    for (int i = 0; i < 40; ++i)
        data.push_back(static_cast<char>(i * 37 + 11));
    for (std::size_t len = 0; len <= data.size(); ++len) {
        std::uint32_t c = 0xffffffffu;
        for (std::size_t i = 0; i < len; ++i) {
            c ^= static_cast<unsigned char>(data[i]);
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        }
        EXPECT_EQ(crc32(data.data(), len), c ^ 0xffffffffu) << len;
    }
}

TEST(NetFraming, OversizeLengthIsCorruptNotAllocation)
{
    std::string hdr(8, '\0');
    std::uint32_t len = kMaxFrameBytes + 1;
    std::memcpy(hdr.data(), &len, 4); // LE host assumed in tests
    FrameReader rd;
    rd.feed(hdr.data(), hdr.size());
    std::string out;
    EXPECT_EQ(rd.next(out), FrameReader::Status::Corrupt);
}

TEST(NetFraming, SendFrameOverSocketpairRoundTrips)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string payload = netwire::encodeLease(42);
    ASSERT_TRUE(sendFrame(sv[0], payload));
    char buf[256];
    ssize_t n = ::recv(sv[1], buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    FrameReader rd;
    rd.feed(buf, static_cast<std::size_t>(n));
    std::string out;
    ASSERT_EQ(rd.next(out), FrameReader::Status::Frame);
    EXPECT_EQ(out, payload);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(NetHostList, ParsesAndRejects)
{
    std::vector<HostAddr> hosts;
    ASSERT_TRUE(
        parseHostList("localhost:9000,127.0.0.1:80,", hosts));
    ASSERT_EQ(hosts.size(), 2u);
    EXPECT_EQ(hosts[0].host, "localhost");
    EXPECT_EQ(hosts[0].port, 9000);
    EXPECT_EQ(hosts[1].host, "127.0.0.1");
    EXPECT_EQ(hosts[1].port, 80);

    EXPECT_FALSE(parseHostList("", hosts));
    EXPECT_FALSE(parseHostList("noport", hosts));
    EXPECT_FALSE(parseHostList("x:0", hosts));
    EXPECT_FALSE(parseHostList("x:70000", hosts));
    EXPECT_FALSE(parseHostList("x:12abc", hosts));
}

// ---------------------------------------------------------------
// netwire codec
// ---------------------------------------------------------------

TEST(NetWire, MessagesRoundTripAndRejectForeignVersions)
{
    std::uint64_t fp = 0;
    std::size_t cells = 0;
    netwire::decodeHello(
        netwire::encodeHello(0xdeadbeefcafef00dull, 17), fp, cells);
    EXPECT_EQ(fp, 0xdeadbeefcafef00dull);
    EXPECT_EQ(cells, 17u);

    std::size_t cell = 0;
    netwire::decodeLease(netwire::encodeLease(5), cell);
    EXPECT_EQ(cell, 5u);

    // RESULT embeds the procwire line verbatim: the remote farm's
    // payload must reach the coordinator bit for bit.
    CellOutcome<std::string> o;
    o.status = CellStatus::Ok;
    o.attempts = 1;
    o.value.emplace(encodeD(cellValue(3)));
    std::string line = procwire::encodeResult(3, o);
    std::string back;
    netwire::decodeResult(netwire::encodeResult(line), back);
    EXPECT_EQ(back, line);

    EXPECT_EQ(netwire::decodeType(netwire::encodePing()),
              netwire::Type::Ping);
    EXPECT_EQ(netwire::decodeType(netwire::encodePong()),
              netwire::Type::Pong);
    EXPECT_EQ(netwire::decodeType(netwire::encodeRelease()),
              netwire::Type::Release);

    CellEncoder foreign;
    foreign.u64(netwire::kVersion + 1).u64(1);
    EXPECT_THROW(netwire::decodeType(foreign.result()), FsError);
    CellEncoder badtype;
    badtype.u64(netwire::kVersion).u64(99);
    EXPECT_THROW(netwire::decodeType(badtype.result()), FsError);
}

TEST(NetExecutorConfigTest, EnvKnobsParse)
{
    setenv("FS_HOSTS", "a:1,b:2", 1);
    setenv("FS_HOST_TIMEOUT_MS", "5000", 1);
    setenv("FS_LEASE_WINDOW", "3", 1);
    setenv("FS_LEASE_TIMEOUT_MS", "250", 1);
    setenv("FS_POISON_KILLS", "4", 1);
    setenv("FS_CONNECT_TIMEOUT_MS", "77", 1);
    LeaseConfig cfg = LeaseConfig::fromEnv(ExecutorKind::Net);
    ASSERT_EQ(cfg.hosts.size(), 2u);
    EXPECT_EQ(cfg.hosts[0].host, "a");
    EXPECT_EQ(cfg.hosts[1].port, 2);
    EXPECT_EQ(cfg.hostTimeoutMs, 5000u);
    EXPECT_EQ(cfg.leaseWindow, 3u);
    EXPECT_EQ(cfg.leaseTimeoutMs, 250u);
    EXPECT_EQ(cfg.poisonKills, 4u);
    EXPECT_EQ(cfg.connectTimeoutMs, 77u);
    unsetenv("FS_HOST_TIMEOUT_MS");
    unsetenv("FS_LEASE_WINDOW");
    unsetenv("FS_LEASE_TIMEOUT_MS");
    unsetenv("FS_POISON_KILLS");
    unsetenv("FS_CONNECT_TIMEOUT_MS");
    cfg = LeaseConfig::fromEnv(ExecutorKind::Net);
    EXPECT_EQ(cfg.hostTimeoutMs, 10000u);
    EXPECT_EQ(cfg.leaseWindow, 2u);
    EXPECT_EQ(cfg.leaseTimeoutMs, 0u);
    // Net default is 2 (one free retry), unlike the local farm's 1:
    // a lost host is usually the host's fault, not the cell's.
    EXPECT_EQ(cfg.poisonKills, 2u);

    // Malformed values, and values beyond the field's type, die
    // naming the knob instead of truncating into the field.
    const std::pair<const char *, const char *> bad[] = {
        {"FS_LEASE_WINDOW", "4294967296"},
        {"FS_LEASE_WINDOW", "0"},
        {"FS_POISON_KILLS", "4294967298"},
        {"FS_HOST_TIMEOUT_MS", "0"},
        {"FS_CONNECT_TIMEOUT_MS", "-5"},
        {"FS_LEASE_TIMEOUT_MS", "99999999999999999999"},
    };
    for (const auto &[knob, value] : bad) {
        setenv(knob, value, 1);
        EXPECT_DEATH(LeaseConfig::fromEnv(ExecutorKind::Net), knob)
            << knob << "=" << value;
        unsetenv(knob);
    }
    unsetenv("FS_HOSTS");
}

// ---------------------------------------------------------------
// Loopback farm
// ---------------------------------------------------------------

/**
 * Spawns agents (this binary re-exec'd with --fs-agent=0), waits
 * for their port files, points FS_HOSTS at them, and scrubs every
 * knob both ways. Coordinator-side knobs are set *after* spawning
 * so they never leak into an agent's environment; agent-side knobs
 * go through spawnAgent()'s env list.
 */
class NetExecutorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearKnobs();
        FaultInjector::installForTest("");
    }

    void
    TearDown() override
    {
        for (pid_t pid : agents_) {
            ::kill(pid, SIGKILL); // no-op for released agents
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
        agents_.clear();
        clearKnobs();
        FaultInjector::installForTest("");
        if (!dir_.empty()) {
            std::string cmd = "rm -rf '" + dir_ + "'";
            (void)std::system(cmd.c_str());
        }
    }

    /** Fresh scratch dir (port files, checkpoint journals). */
    const std::string &
    scratchDir()
    {
        if (dir_.empty()) {
            char tmpl[] = "/tmp/fscache-net-XXXXXX";
            char *dir = mkdtemp(tmpl);
            EXPECT_NE(dir, nullptr);
            dir_ = dir;
        }
        return dir_;
    }

    /**
     * Fork/exec one agent with `env` prepended to its environment;
     * returns its bound port (0 on failure). The agent inherits the
     * test binary's environment minus the knobs clearKnobs() owns —
     * SetUp scrubbed those, and coordinator knobs are set after the
     * spawn.
     */
    std::uint16_t
    spawnAgent(const std::vector<std::pair<std::string,
                                           std::string>> &env = {})
    {
        std::string port_file = strprintf(
            "%s/agent-%zu.port", scratchDir().c_str(),
            agents_.size());
        pid_t pid = ::fork();
        if (pid == 0) {
            setenv("FS_AGENT_PORT_FILE", port_file.c_str(), 1);
            for (const auto &[k, v] : env)
                setenv(k.c_str(), v.c_str(), 1);
            ::execl("/proc/self/exe", "test_net_executor",
                    "--fs-agent=0", static_cast<char *>(nullptr));
            ::_exit(127);
        }
        EXPECT_GT(pid, 0);
        agents_.push_back(pid);
        for (int tries = 0; tries < 1000; ++tries) {
            std::ifstream in(port_file);
            unsigned p = 0;
            if (in >> p && p > 0 && p <= 65535)
                return static_cast<std::uint16_t>(p);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        ADD_FAILURE() << "agent never published its port";
        return 0;
    }

    /** FS_HOSTS pointing the coordinator at loopback agents. */
    static void
    setHosts(const std::vector<std::uint16_t> &ports)
    {
        std::string hosts;
        for (std::uint16_t p : ports) {
            if (!hosts.empty())
                hosts += ",";
            hosts += strprintf("127.0.0.1:%u",
                               static_cast<unsigned>(p));
        }
        setenv("FS_EXECUTOR", "net", 1);
        setenv("FS_HOSTS", hosts.c_str(), 1);
    }

  private:
    static void
    clearKnobs()
    {
        unsetenv("FS_EXECUTOR");
        unsetenv("FS_HOSTS");
        unsetenv("FS_HOST_TIMEOUT_MS");
        unsetenv("FS_LEASE_WINDOW");
        unsetenv("FS_LEASE_TIMEOUT_MS");
        unsetenv("FS_POISON_KILLS");
        unsetenv("FS_WORKER_BACKOFF_MS");
        unsetenv("FS_CONNECT_TIMEOUT_MS");
        unsetenv("FS_WORKERS");
        unsetenv("FS_FAULTS");
        unsetenv("FS_CHECKPOINT_DIR");
        unsetenv("FS_AGENT_PORT_FILE");
        unsetenv("FS_NET_TEST_KILL_AGENT_CELL");
    }

    std::vector<pid_t> agents_;
    std::string dir_;
};

TEST_F(NetExecutorTest, CleanNetRunIsByteIdenticalToSerial)
{
    std::uint16_t a = spawnAgent({{"FS_WORKERS", "2"}});
    std::uint16_t b = spawnAgent({{"FS_WORKERS", "2"}});
    ASSERT_NE(a, 0);
    ASSERT_NE(b, 0);
    setHosts({a, b});
    auto net = runTestSweep();
    ASSERT_TRUE(net.allOk());
    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_FALSE(net.cells[i].restored) << i;
        EXPECT_EQ(encodeD(*net.cells[i].value), want[i]) << i;
    }
}

TEST_F(NetExecutorTest, NetdropQuarantinesAfterPoisonKills)
{
    // The agent drops the connection every time cell 2 is leased;
    // window 1 pins exactly one lease in flight, so only cell 2
    // accumulates kill marks. Two drops (FS_POISON_KILLS=2) must
    // quarantine it as FAILED(crash:netdrop) with attempts=2 while
    // every other cell stays byte-identical.
    std::uint16_t a =
        spawnAgent({{"FS_WORKERS", "1"},
                    {"FS_FAULTS", "cell=2:netdrop"}});
    ASSERT_NE(a, 0);
    setHosts({a});
    setenv("FS_LEASE_WINDOW", "1", 1);
    setenv("FS_POISON_KILLS", "2", 1);
    setenv("FS_WORKER_BACKOFF_MS", "1", 1);
    auto net = runTestSweep();
    EXPECT_EQ(net.okCount(), kCells - 1);

    const CellOutcome<double> &bad = net.cells[2];
    EXPECT_EQ(bad.status, CellStatus::Failed);
    EXPECT_EQ(bad.errorClass, ErrorClass::Crash);
    EXPECT_EQ(bad.crashSignal, "netdrop");
    EXPECT_EQ(failureLabel(bad), "crash:netdrop");
    EXPECT_EQ(bad.attempts, 2u);

    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        if (i == 2)
            continue;
        ASSERT_TRUE(net.cells[i].ok()) << i;
        EXPECT_EQ(encodeD(*net.cells[i].value), want[i]) << i;
    }
}

TEST_F(NetExecutorTest, StallIsKilledAtTheLeaseDeadline)
{
    // The agent accepts cell 1's lease and never answers while
    // still heartbeating — only the lease budget can catch that.
    std::uint16_t a = spawnAgent(
        {{"FS_WORKERS", "1"}, {"FS_FAULTS", "cell=1:stall"}});
    ASSERT_NE(a, 0);
    setHosts({a});
    setenv("FS_LEASE_WINDOW", "1", 1);
    setenv("FS_LEASE_TIMEOUT_MS", "300", 1);
    setenv("FS_POISON_KILLS", "2", 1);
    setenv("FS_WORKER_BACKOFF_MS", "1", 1);
    auto net = runTestSweep();
    EXPECT_EQ(net.okCount(), kCells - 1);

    const CellOutcome<double> &bad = net.cells[1];
    EXPECT_EQ(bad.status, CellStatus::Failed);
    EXPECT_EQ(bad.errorClass, ErrorClass::Crash);
    EXPECT_EQ(failureLabel(bad), "crash:stall");
    EXPECT_EQ(bad.attempts, 2u);

    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        if (i == 1)
            continue;
        ASSERT_TRUE(net.cells[i].ok()) << i;
        EXPECT_EQ(encodeD(*net.cells[i].value), want[i]) << i;
    }
}

TEST_F(NetExecutorTest, HostDeathMidCellRequeuesToSurvivor)
{
    // Agent A's farm worker SIGKILLs the agent while running cell
    // 2: the coordinator sees the connection drop, requeues the
    // lease, and the surviving agent B completes it — the sweep
    // ends fully ok and byte-identical.
    std::uint16_t a = spawnAgent(
        {{"FS_WORKERS", "1"},
         {"FS_NET_TEST_KILL_AGENT_CELL", "2"}});
    std::uint16_t b = spawnAgent({{"FS_WORKERS", "2"}});
    ASSERT_NE(a, 0);
    ASSERT_NE(b, 0);
    setHosts({a, b});
    setenv("FS_LEASE_WINDOW", "1", 1);
    setenv("FS_WORKER_BACKOFF_MS", "1", 1);
    auto net = runTestSweep();
    ASSERT_TRUE(net.allOk());
    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(encodeD(*net.cells[i].value), want[i]) << i;
}

TEST_F(NetExecutorTest, AllHostsDownFallsBackToLocalExecution)
{
    // Port 1 on loopback refuses instantly; after the failure cap
    // the only host is abandoned and the sweep must finish on the
    // local executor — complete, ok, and byte-identical.
    setenv("FS_EXECUTOR", "net", 1);
    setenv("FS_HOSTS", "127.0.0.1:1", 1);
    setenv("FS_WORKER_BACKOFF_MS", "1", 1);
    auto net = runTestSweep();
    ASSERT_TRUE(net.allOk());
    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(encodeD(*net.cells[i].value), want[i]) << i;
}

TEST_F(NetExecutorTest, ThreadJournalResumesUnderNetMode)
{
    setenv("FS_CHECKPOINT_DIR", scratchDir().c_str(), 1);

    // Thread-mode run journals every cell except the faulted one
    // (failed cells are never journaled). The fault is installed
    // directly — this run executes in *this* process.
    FaultInjector::installForTest("cell=4:throw");
    auto partial = runTestSweep();
    FaultInjector::installForTest("");
    EXPECT_EQ(partial.okCount(), kCells - 1);

    // Net-mode resume: restored cells come from the journal; only
    // cell 4 crosses the wire. Output bit-identical to an
    // uninterrupted serial run.
    std::uint16_t a = spawnAgent({{"FS_WORKERS", "2"}});
    ASSERT_NE(a, 0);
    setHosts({a});
    auto resumed = runTestSweep();
    ASSERT_TRUE(resumed.allOk());
    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(resumed.cells[i].restored, i != 4) << i;
        EXPECT_EQ(encodeD(*resumed.cells[i].value), want[i]) << i;
    }
}

TEST_F(NetExecutorTest, NetJournalResumesUnderThreadMode)
{
    // Net run with an injected netdrop and FS_POISON_KILLS=1: cell
    // 2 quarantines on the first drop and is never journaled; the
    // other five cells journal their wire payloads verbatim.
    std::uint16_t a = spawnAgent(
        {{"FS_WORKERS", "1"}, {"FS_FAULTS", "cell=2:netdrop"}});
    ASSERT_NE(a, 0);
    setenv("FS_CHECKPOINT_DIR", scratchDir().c_str(), 1);
    setHosts({a});
    setenv("FS_LEASE_WINDOW", "1", 1);
    setenv("FS_POISON_KILLS", "1", 1);
    setenv("FS_WORKER_BACKOFF_MS", "1", 1);
    auto partial = runTestSweep();
    EXPECT_EQ(partial.okCount(), kCells - 1);
    EXPECT_EQ(failureLabel(partial.cells[2]), "crash:netdrop");

    // Thread-mode resume recomputes only the quarantined cell.
    unsetenv("FS_EXECUTOR");
    unsetenv("FS_HOSTS");
    auto resumed = runTestSweep();
    ASSERT_TRUE(resumed.allOk());
    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(resumed.cells[i].restored, i != 2) << i;
        EXPECT_EQ(encodeD(*resumed.cells[i].value), want[i]) << i;
    }
}

} // namespace
} // namespace fscache

int
main(int argc, char **argv)
{
    // Agents and farm workers re-exec this binary; route both
    // re-entries straight into the test sweep (the agent serves it
    // over TCP and exits on RELEASE; a worker serves cells over its
    // pipes — neither returns from runTestSweep's farmed sweep).
    fscache::procExecutorInit(&argc, argv);
    if (fscache::procWorkerMode() || fscache::netAgentMode()) {
        (void)fscache::runTestSweep();
        return 0;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
