/**
 * @file
 * Checkpoint/resume tests: bit-exact payload codec round-trips,
 * journal persistence and atomicity, fingerprint keying, torn-line
 * tolerance, and the crash-safety contract — a sweep killed
 * mid-run (fork + _exit at cell k) resumes executing only the
 * missing cells with values identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "common/random.hh"
#include "runner/checkpoint.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{
namespace
{

/** Fresh private directory per test; removed on teardown. */
class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/fscache-ckpt-XXXXXX";
        char *dir = mkdtemp(tmpl);
        ASSERT_NE(dir, nullptr);
        dir_ = dir;
    }

    void
    TearDown() override
    {
        unsetenv("FS_CHECKPOINT_DIR");
        // Best-effort cleanup; the journal names are flat files.
        std::string cmd = "rm -rf '" + dir_ + "'";
        (void)std::system(cmd.c_str());
    }

    std::string dir_;
};

double
cellDouble(std::size_t i)
{
    // An awkward, non-representable value so only a bit-exact
    // round-trip reproduces it.
    return std::sqrt(static_cast<double>(i) + 2.0) / 3.0;
}

TEST(CellCodec, RoundTripsIntegersDoublesStrings)
{
    CellEncoder e;
    e.u64(0).u64(std::numeric_limits<std::uint64_t>::max());
    e.f64(0.1).f64(-0.0).f64(1e-310); // subnormal
    e.str("hello world").str("");
    CellDecoder d(e.result());
    EXPECT_EQ(d.u64(), 0u);
    EXPECT_EQ(d.u64(), std::numeric_limits<std::uint64_t>::max());
    double a = d.f64(), b = d.f64(), c = d.f64();
    EXPECT_EQ(a, 0.1);
    EXPECT_TRUE(std::signbit(b));
    EXPECT_EQ(c, 1e-310);
    EXPECT_EQ(d.str(), "hello world");
    EXPECT_EQ(d.str(), "");
    EXPECT_TRUE(d.done());
}

TEST(CellCodec, NanAndInfinitySurviveBitExactly)
{
    CellEncoder e;
    e.f64(std::numeric_limits<double>::quiet_NaN());
    e.f64(std::numeric_limits<double>::infinity());
    e.f64(-std::numeric_limits<double>::infinity());
    CellDecoder d(e.result());
    EXPECT_TRUE(std::isnan(d.f64()));
    EXPECT_EQ(d.f64(), std::numeric_limits<double>::infinity());
    EXPECT_EQ(d.f64(), -std::numeric_limits<double>::infinity());
}

TEST(CellCodec, TruncatedPayloadThrowsTyped)
{
    CellEncoder e;
    e.u64(7);
    CellDecoder d(e.result());
    EXPECT_EQ(d.u64(), 7u);
    EXPECT_THROW(d.u64(), FsError);
}

TEST(CellCodec, GarbagePayloadThrowsTyped)
{
    CellDecoder d("not-a-number");
    EXPECT_THROW(d.u64(), FsError);
}

/** A result listing its fields once, as the figure drivers do. */
struct FieldsResult
{
    bool valid = false;
    std::uint32_t count = 0;
    std::int64_t delta = 0;
    double ratio = 0.0;
    std::vector<double> curve;

    auto fields() { return std::tie(valid, count, delta, ratio, curve); }
};

TEST(FieldsCodec, RoundTripsEveryFieldKindBitExactly)
{
    FieldsResult r;
    r.valid = true;
    r.count = std::numeric_limits<std::uint32_t>::max();
    r.delta = -42;
    r.ratio = cellDouble(5);
    r.curve = {-0.0, 1e-310, cellDouble(9)};
    FieldsResult back =
        decodeFields<FieldsResult>(encodeFields(r));
    EXPECT_TRUE(back.valid);
    EXPECT_EQ(back.count, r.count);
    EXPECT_EQ(back.delta, -42);
    EXPECT_EQ(back.ratio, r.ratio);
    ASSERT_EQ(back.curve.size(), 3u);
    EXPECT_TRUE(std::signbit(back.curve[0]));
    EXPECT_EQ(back.curve[1], 1e-310);
    EXPECT_EQ(back.curve[2], r.curve[2]);
    // An empty list round-trips too.
    EXPECT_TRUE(decodeFields<FieldsResult>(encodeFields(FieldsResult{}))
                    .curve.empty());
}

TEST(FieldsCodec, MalformedPayloadsThrowTyped)
{
    const std::string good = encodeFields(FieldsResult{});
    // Truncated, trailing tokens, an out-of-range bool or uint32, and
    // a list length larger than the payload.
    EXPECT_THROW(decodeFields<FieldsResult>("1 2"), FsError);
    EXPECT_THROW(decodeFields<FieldsResult>(good + " 0"), FsError);
    EXPECT_THROW(decodeFields<FieldsResult>("2 0 0 0 0"), FsError);
    EXPECT_THROW(decodeFields<FieldsResult>("0 100000000 0 0 0"),
                 FsError);
    EXPECT_THROW(decodeFields<FieldsResult>("0 0 0 0 ffff"), FsError);
}

TEST(Fingerprint, DiffersAcrossKeys)
{
    EXPECT_NE(fingerprint64("fig2;cells=54"),
              fingerprint64("fig2;cells=53"));
    EXPECT_EQ(fingerprint64("same"), fingerprint64("same"));
}

TEST_F(CheckpointTest, RecordsPersistAcrossReopen)
{
    {
        auto j = CheckpointJournal::openAt(dir_, "sweep", "k=1");
        ASSERT_NE(j, nullptr);
        EXPECT_TRUE(j->restored().empty());
        j->record(0, "a");
        j->record(3, "b b");
    }
    auto j = CheckpointJournal::openAt(dir_, "sweep", "k=1");
    ASSERT_NE(j, nullptr);
    ASSERT_EQ(j->restored().size(), 2u);
    EXPECT_EQ(j->restored().at(0), "a");
    EXPECT_EQ(j->restored().at(3), "b b");
}

TEST_F(CheckpointTest, ConfigKeyChangesIsolateJournals)
{
    auto j1 = CheckpointJournal::openAt(dir_, "sweep", "seed=1");
    j1->record(0, "old");
    auto j2 = CheckpointJournal::openAt(dir_, "sweep", "seed=2");
    // A different configuration must not see the other's cells.
    EXPECT_TRUE(j2->restored().empty());
    EXPECT_NE(j1->path(), j2->path());
}

TEST_F(CheckpointTest, TornTrailingLineIsSkipped)
{
    std::string path;
    {
        auto j = CheckpointJournal::openAt(dir_, "sweep", "k=1");
        j->record(0, "good");
        j->record(1, "alsogood");
        path = j->path();
    }
    // Simulate a crash that tore the last line mid-write.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"cell\":2,\"v\":\"tr";
    }
    auto j = CheckpointJournal::openAt(dir_, "sweep", "k=1");
    ASSERT_EQ(j->restored().size(), 2u);
    EXPECT_EQ(j->restored().count(2), 0u);
}

TEST_F(CheckpointTest, UnsetEnvDisablesCheckpointing)
{
    unsetenv("FS_CHECKPOINT_DIR");
    EXPECT_EQ(CheckpointJournal::openFromEnv("sweep", "k"), nullptr);
    setenv("FS_CHECKPOINT_DIR", "", 1);
    EXPECT_EQ(CheckpointJournal::openFromEnv("sweep", "k"), nullptr);
}

TEST_F(CheckpointTest, ResumeExecutesOnlyMissingCells)
{
    setenv("FS_CHECKPOINT_DIR", dir_.c_str(), 1);
    auto encode = [](double v) {
        CellEncoder e;
        e.f64(v);
        return e.result();
    };
    auto decode = [](const std::string &p) {
        CellDecoder d(p);
        return d.f64();
    };
    constexpr std::size_t kCells = 8;

    // First run: cells 5.. fail (permanent), so the journal holds
    // exactly cells 0..4.
    SweepRunner runner(1);
    auto first = runner.mapResilientCheckpointed(
        kCells,
        [](std::size_t i) -> double {
            if (i >= 5)
                throw FsError("unavailable");
            return cellDouble(i);
        },
        "partial", "cfg=A", encode, decode);
    EXPECT_EQ(first.okCount(), 5u);

    // Second run: everything works; only the failed cells may
    // execute — restored cells must not call fn again.
    std::vector<std::size_t> executed;
    auto resumed = runner.mapResilientCheckpointed(
        kCells,
        [&executed](std::size_t i) {
            executed.push_back(i);
            return cellDouble(i);
        },
        "partial", "cfg=A", encode, decode);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(executed, (std::vector<std::size_t>{5, 6, 7}));
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(*resumed.cells[i].value, cellDouble(i)) << i;
        EXPECT_EQ(resumed.cells[i].restored, i < 5) << i;
    }
}

TEST_F(CheckpointTest, UndecodableRecordRecomputes)
{
    setenv("FS_CHECKPOINT_DIR", dir_.c_str(), 1);
    // Poison cell 1 with a payload the decoder rejects. The config
    // key must match what mapResilientCheckpointed derives (it
    // appends ";cells=N").
    {
        auto j = CheckpointJournal::openAt(dir_, "poison",
                                           "cfg=B;cells=3");
        j->record(0, CellEncoder().f64(cellDouble(0)).result());
        j->record(1, "garbage payload");
    }
    std::vector<std::size_t> executed;
    SweepRunner runner(1);
    auto report = runner.mapResilientCheckpointed(
        3,
        [&executed](std::size_t i) {
            executed.push_back(i);
            return cellDouble(i);
        },
        "poison", "cfg=B",
        [](double v) { return CellEncoder().f64(v).result(); },
        [](const std::string &p) { return CellDecoder(p).f64(); },
        CellGuardConfig{});
    ASSERT_TRUE(report.allOk());
    EXPECT_EQ(executed, (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(*report.cells[1].value, cellDouble(1));
}

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST_F(CheckpointTest, CompactFileDropsStaleRecordsByteIdentically)
{
    // A journal assembled by appends (e.g. merged from per-host
    // shards) can carry stale duplicates and a torn tail. Compaction
    // must reduce it to exactly the bytes record() would have
    // written for the surviving entries: last record per cell wins,
    // torn lines drop.
    std::string path = dir_ + "/assembled.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"cell\":0,\"v\":\"stale0\"}\n"
            << "{\"cell\":2,\"v\":\"keep2\"}\n"
            << "{\"cell\":0,\"v\":\"keep0\"}\n"
            << "not a journal line\n"
            << "{\"cell\":5,\"v\":\"keep5\"}\n"
            << "{\"cell\":7,\"v\":\"to";  // torn mid-write
    }
    ASSERT_TRUE(CheckpointJournal::compactFile(path));

    // Reference: the same surviving entries written through record().
    std::string ref;
    {
        auto j = CheckpointJournal::openAt(dir_, "reference", "k");
        ASSERT_NE(j, nullptr);
        j->record(0, "keep0");
        j->record(2, "keep2");
        j->record(5, "keep5");
        ref = j->path();
    }
    EXPECT_EQ(slurpFile(path), slurpFile(ref));

    // Idempotent: compacting a compact journal changes nothing.
    std::string once = slurpFile(path);
    ASSERT_TRUE(CheckpointJournal::compactFile(path));
    EXPECT_EQ(slurpFile(path), once);

    // And the compacted file still restores through the normal
    // open path (copy it under openAt's naming scheme).
    std::string restore_dir = dir_ + "/restore";
    auto probe = CheckpointJournal::openAt(restore_dir, "sw", "ck");
    ASSERT_NE(probe, nullptr);
    std::string cmd = "cp '" + path + "' '" + probe->path() + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    auto back = CheckpointJournal::openAt(restore_dir, "sw", "ck");
    ASSERT_EQ(back->restored().size(), 3u);
    EXPECT_EQ(back->restored().at(0), "keep0");
    EXPECT_EQ(back->restored().at(5), "keep5");
}

TEST_F(CheckpointTest, CompactFileRefusesUnreadablePath)
{
    EXPECT_FALSE(
        CheckpointJournal::compactFile(dir_ + "/no-such.jsonl"));
}

TEST_F(CheckpointTest, RecordSurvivesSigkillImmediatelyAfter)
{
    // Durability regression for the fsync-before-and-after-rename
    // fix: once record() returns, the entry must be on disk even if
    // the process is SIGKILLed the next instruction — no buffered
    // tmp file waiting for a destructor, no unrenamed tmp, and no
    // lingering *.tmp beside the journal.
    std::string path;
    {
        auto probe = CheckpointJournal::openAt(dir_, "durable", "k");
        ASSERT_NE(probe, nullptr);
        path = probe->path();
    }
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        auto j = CheckpointJournal::openAt(dir_, "durable", "k");
        j->record(0, CellEncoder().f64(cellDouble(0)).result());
        j->record(1, CellEncoder().f64(cellDouble(1)).result());
        raise(SIGKILL); // no exit handlers, no stream flush
        _exit(99);      // not reached
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    auto j = CheckpointJournal::openAt(dir_, "durable", "k");
    ASSERT_EQ(j->restored().size(), 2u);
    EXPECT_EQ(CellDecoder(j->restored().at(1)).f64(), cellDouble(1));

    struct stat st;
    EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0)
        << "flush left its tmp file behind";
}

TEST_F(CheckpointTest, KilledRunResumesByteIdentically)
{
    setenv("FS_CHECKPOINT_DIR", dir_.c_str(), 1);
    constexpr std::size_t kCells = 6;
    constexpr std::size_t kKillAt = 3;
    auto encode = [](double v) {
        CellEncoder e;
        e.f64(v);
        return e.result();
    };
    auto decode = [](const std::string &p) {
        CellDecoder d(p);
        return d.f64();
    };

    // Child: run the sweep serially and die *mid-cell* at cell k —
    // after cells 0..k-1 were journaled, before k completes. _exit
    // skips all destructors/flushes, like a SIGKILL.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        SweepRunner serial(1);
        (void)serial.mapResilientCheckpointed(
            kCells,
            [](std::size_t i) -> double {
                if (i == kKillAt)
                    _exit(42);
                return cellDouble(i);
            },
            "killed", "cfg=C", encode, decode);
        _exit(0); // not reached
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 42);

    // Parent: resume. Only cells k.. may execute, and the full
    // result payload must be bit-identical to an uninterrupted run.
    std::vector<std::size_t> executed;
    SweepRunner runner(1);
    auto resumed = runner.mapResilientCheckpointed(
        kCells,
        [&executed](std::size_t i) {
            executed.push_back(i);
            return cellDouble(i);
        },
        "killed", "cfg=C", encode, decode);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(executed,
              (std::vector<std::size_t>{kKillAt, 4, 5}));

    unsetenv("FS_CHECKPOINT_DIR");
    auto clean = runner.mapResilient(
        kCells, [](std::size_t i) { return cellDouble(i); });
    ASSERT_TRUE(clean.allOk());
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(encode(*resumed.cells[i].value),
                  encode(*clean.cells[i].value))
            << i;
    }
}

} // namespace
} // namespace fscache
