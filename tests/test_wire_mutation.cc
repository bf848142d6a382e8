/**
 * @file
 * Deterministic mutation guards for the decode paths that read
 * untrusted bytes:
 *  - the wire path every farmed cell result takes: FrameReader ->
 *    netwire::decode* -> procwire::decodeResult. Valid HELLO /
 *    LEASE / RESULT / PING frames get Rng-seeded byte flips,
 *    truncations, insertions and length lies, either in the framed
 *    bytes (the CRC must catch them) or in the payload before
 *    framing (the decoders must);
 *  - trace files through readTrace();
 *  - checkpoint journals: a journal file loaded (and on a stride
 *    compacted) by CheckpointJournal, and each restored payload
 *    decoded through CellDecoder.
 * Every input must end as Corrupt, an FsError, an incomplete frame,
 * or a clean decode — never a crash or another exception type. The
 * asan-ubsan preset runs this binary too, so out-of-bounds reads,
 * oversized allocations and UB in the decoders fail there.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/errors.hh"
#include "common/net.hh"
#include "common/random.hh"
#include "runner/checkpoint.hh"
#include "runner/net_executor.hh"
#include "runner/proc_executor.hh"
#include "trace/file_trace.hh"

namespace fscache
{
namespace
{

/** Fixed: the guard must be reproducible, not a fuzzer. */
constexpr std::uint64_t kSeed = 0x6d757461746532ull;
constexpr int kMutations = 300000;

std::vector<std::string>
validMessages()
{
    CellOutcome<std::string> ok;
    ok.status = CellStatus::Ok;
    ok.attempts = 1;
    CellEncoder payload;
    payload.f64(0.1).u64(42).str("hits misses");
    ok.value.emplace(payload.result());

    CellOutcome<std::string> crashed;
    crashed.status = CellStatus::Failed;
    crashed.errorClass = ErrorClass::Crash;
    crashed.crashSignal = "SIGSEGV";
    crashed.error = "worker 1 lost (SIGSEGV) running cell 7";
    crashed.detail = "line one\nline two";
    crashed.attempts = 2;

    return {
        netwire::encodeHello(0xdeadbeefcafef00dull, 4000),
        netwire::encodeLease(3999),
        netwire::encodeResult(procwire::encodeResult(3, ok)),
        netwire::encodeResult(procwire::encodeResult(7, crashed)),
        netwire::encodePing(),
        netwire::encodeRelease(),
    };
}

/**
 * One Rng-chosen mutation. `picks` are the bytes an overwrite may
 * write: ones the decoder under test gives meaning to. Only framed
 * bytes get a length lie.
 */
void
mutate(std::string &bytes, Rng &rng, bool framed,
       const std::string &picks = std::string(" s0f9-\n\xff", 8))
{
    switch (rng.below(framed ? 5 : 4)) {
      case 0: // flip a few bits
        for (std::uint64_t k = rng.range(1, 4); k > 0 && !bytes.empty(); --k)
            bytes[rng.below(bytes.size())] ^=
                static_cast<char>(1u << rng.below(8));
        break;
      case 1: // truncate
        bytes.resize(rng.below(bytes.size() + 1));
        break;
      case 2: // overwrite a byte with one the codecs care about
        if (!bytes.empty())
            bytes[rng.below(bytes.size())] =
                picks[rng.below(picks.size())];
        break;
      case 3: { // duplicate a leading run somewhere
        const std::string run = bytes.substr(0, rng.below(bytes.size() + 1));
        const std::size_t at = rng.below(bytes.size() + 1);
        bytes = bytes.substr(0, at) + run + bytes.substr(at);
        break;
      }
      default: { // lie about the frame length, wildly or by a little
        const auto len = static_cast<std::uint32_t>(bytes.size() - 8);
        const std::uint32_t lie =
            rng.chance(0.5)
                ? static_cast<std::uint32_t>(rng())
                : len + static_cast<std::uint32_t>(rng.range(0, 8)) - 4;
        for (int b = 0; b < 4; ++b)
            bytes[b] = static_cast<char>((lie >> (8 * b)) & 0xff);
        break;
      }
    }
}

struct Tally
{
    long corrupt = 0;
    long incomplete = 0;
    long typedError = 0;
    long decoded = 0;
};

/** Decode one payload all the way down to the cell outcome. */
void
decodeAll(const std::string &msg, Tally &t)
{
    try {
        std::uint64_t fp = 0;
        std::size_t n = 0;
        std::string line;
        CellOutcome<std::string> o;
        switch (netwire::decodeType(msg)) {
          case netwire::Type::Hello:
            netwire::decodeHello(msg, fp, n);
            break;
          case netwire::Type::Lease:
            netwire::decodeLease(msg, n);
            break;
          case netwire::Type::Result:
            netwire::decodeResult(msg, line);
            procwire::decodeResult(line, n, o);
            break;
          default:
            break;
        }
        ++t.decoded;
    } catch (const FsError &) {
        ++t.typedError;
    }
}

TEST(WireMutation, EveryMutantEndsTyped)
{
    const std::vector<std::string> valid = validMessages();
    Rng rng(kSeed);
    Tally t;
    for (int i = 0; i < kMutations; ++i) {
        const std::string &msg = valid[rng.below(valid.size())];
        // Half the mutants corrupt the wire bytes (the CRC's job),
        // half the payload under a valid CRC (the decoders' job).
        const bool framed = rng.chance(0.5);
        std::string bytes = framed ? encodeFrame(msg) : msg;
        mutate(bytes, rng, framed);
        if (!framed)
            bytes = encodeFrame(bytes);

        FrameReader rd;
        for (std::size_t pos = 0; pos < bytes.size();) {
            std::size_t len = rng.range(1, bytes.size() - pos);
            rd.feed(bytes.data() + pos, len);
            pos += len;
        }
        std::string payload;
        FrameReader::Status st;
        while ((st = rd.next(payload)) == FrameReader::Status::Frame)
            decodeAll(payload, t);
        if (st == FrameReader::Status::Corrupt)
            ++t.corrupt;
        else
            ++t.incomplete;
    }
    // Every outcome class must be reached, or the guard is not
    // exercising the path it claims to.
    EXPECT_GT(t.corrupt, kMutations / 10);
    EXPECT_GT(t.typedError, kMutations / 10);
    EXPECT_GT(t.decoded, 0);
    EXPECT_GT(t.incomplete, 0);
}

/** A trace file in every shape readTrace() accepts. */
const char kTrace[] =
    "# fscache trace: address instr-gap next-use\n"
    "0x1000 3 5\n"
    "0x2040 1 18446744073709551615\n"
    "\n"
    "4096 2 # decimal address, no next use\n"
    "0X7fff0 1 0\n"
    "0x40\n";

TEST(TraceMutation, EveryMutantEndsTyped)
{
    constexpr int kTraceMutations = 100000;
    Rng rng(kSeed + 1);
    Tally t;
    for (int i = 0; i < kTraceMutations; ++i) {
        std::string bytes = kTrace;
        for (std::uint64_t k = rng.range(1, 3); k > 0; --k)
            mutate(bytes, rng, false, " #x0fF9-\n\t\xff");
        std::istringstream in(bytes);
        try {
            TraceBuffer b = readTrace(in, "<mutant>");
            EXPECT_GT(b.size(), 0u);
            ++t.decoded;
        } catch (const TraceFormatError &) {
            ++t.typedError;
        }
    }
    EXPECT_GT(t.typedError, kTraceMutations / 10);
    EXPECT_GT(t.decoded, kTraceMutations / 10);
}

/** A NUL inside a token is garbage in the token, not its end: the
 *  mutants above reach this, and it once decoded as a valid value. */
TEST(TraceMutation, EmbeddedNulFailsTheToken)
{
    std::istringstream trace(std::string("0x10\0zz 1\n", 10));
    EXPECT_THROW(readTrace(trace), TraceFormatError);
    CellDecoder d(std::string("1\0zz", 4));
    EXPECT_THROW(d.u64(), FsError);
}

/**
 * A payload decoder shaped like the benches' and fscache_sim's:
 * fixed fields, then a length-prefixed list, then nothing.
 */
void
decodeCellPayload(const std::string &payload)
{
    CellDecoder d(payload);
    d.u64();
    d.str();
    d.f64();
    std::vector<double> values(d.listLength("values"));
    for (double &v : values)
        v = d.f64();
    if (!d.done())
        throw FsError("cell payload has trailing tokens");
}

TEST(JournalMutation, EveryMutantEndsTyped)
{
    constexpr int kJournalMutations = 10000;
    char tmpl[] = "/tmp/fscache-journal-mutation-XXXXXX";
    const char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);

    // A valid journal: write it through the journal itself.
    std::string path;
    {
        auto j = CheckpointJournal::openAt(dir, "mut", "key");
        for (std::size_t cell = 0; cell < 4; ++cell) {
            CellEncoder e;
            e.u64(1).str("fs zcache").f64(0.25 * cell).u64(cell);
            for (std::size_t v = 0; v < cell; ++v)
                e.f64(1.0 / (v + 1));
            j->record(cell, e.result());
        }
        path = j->path();
    }
    std::string valid;
    {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        valid = ss.str();
    }
    ASSERT_FALSE(valid.empty());

    Rng rng(kSeed + 2);
    Tally t;
    long restored = 0;
    long oversizedLengths = 0;
    for (int i = 0; i < kJournalMutations; ++i) {
        std::string bytes = valid;
        for (std::uint64_t k = rng.range(1, 3); k > 0; --k)
            mutate(bytes, rng, false, " s0f9{}\":,-\n\xff");
        {
            std::ofstream out(path, std::ios::trunc);
            out << bytes;
        }
        auto j = CheckpointJournal::openAt(dir, "mut", "key");
        if (i % 10 == 0) {
            // Compaction keeps exactly what a load restores.
            ASSERT_TRUE(CheckpointJournal::compactFile(path));
            auto again = CheckpointJournal::openAt(dir, "mut", "key");
            ASSERT_EQ(again->restored(), j->restored()) << i;
        }
        for (const auto &[cell, payload] : j->restored()) {
            ++restored;
            try {
                decodeCellPayload(payload);
                ++t.decoded;
            } catch (const FsError &e) {
                ++t.typedError;
                oversizedLengths +=
                    std::string(e.what()).find("length") !=
                    std::string::npos;
            }
        }
    }
    std::remove(path.c_str());
    ::rmdir(dir);
    // Mutants that kept a record must reach both outcomes.
    EXPECT_GT(restored, kJournalMutations);
    EXPECT_GT(t.typedError, kJournalMutations / 10);
    EXPECT_GT(t.decoded, kJournalMutations / 10);
    // Some mutants claim more list elements than the payload holds;
    // CellDecoder::listLength() must refuse them before any allocation.
    EXPECT_GT(oversizedLengths, 0);
}

} // namespace
} // namespace fscache
