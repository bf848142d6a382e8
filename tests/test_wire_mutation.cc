/**
 * @file
 * Deterministic mutation guard for the one wire decode path every
 * farmed cell result takes: FrameReader -> netwire::decode* ->
 * procwire::decodeResult. Valid HELLO / LEASE / RESULT / PING frames
 * get Rng-seeded byte flips, truncations, insertions and length
 * lies, either in the framed bytes (the CRC must catch them) or in
 * the payload before framing (the decoders must). Every input must
 * end as Corrupt, an FsError, an incomplete frame, or a clean decode
 * — never a crash or another exception type. The asan-ubsan preset
 * runs this binary too, so out-of-bounds reads and UB in the
 * decoders fail the build there.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "common/net.hh"
#include "common/random.hh"
#include "runner/checkpoint.hh"
#include "runner/net_executor.hh"
#include "runner/proc_executor.hh"

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

void
mutate(std::string &bytes, Rng &rng, bool framed)
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
        if (!bytes.empty()) {
            static const char kPicks[] = " s0f9-\n\xff";
            bytes[rng.below(bytes.size())] =
                kPicks[rng.below(sizeof(kPicks) - 1)];
        }
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

} // namespace
} // namespace fscache
