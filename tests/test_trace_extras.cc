/**
 * @file
 * Tests for the text trace I/O: round-trips and typed errors on
 * malformed input.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/errors.hh"
#include "trace/cyclic_generator.hh"
#include "trace/file_trace.hh"
#include "trace/next_use_annotator.hh"
#include "trace/stream_generator.hh"

namespace fscache
{
namespace
{

TEST(FileTrace, ParseBasicFormats)
{
    std::istringstream in(
        "# comment line\n"
        "0x10 5\n"
        "32 7\n"
        "\n"
        "0xff 2 42   # trailing comment\n");
    TraceBuffer buf = readTrace(in);
    ASSERT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[0].addr, 0x10u);
    EXPECT_EQ(buf[0].instrGap, 5u);
    EXPECT_EQ(buf[0].nextUse, kNeverUsed);
    EXPECT_EQ(buf[1].addr, 32u);
    EXPECT_EQ(buf[2].addr, 0xffu);
    EXPECT_EQ(buf[2].nextUse, 42u);
}

TEST(FileTrace, DefaultGapIsOne)
{
    std::istringstream in("0x1\n0x2\n");
    TraceBuffer buf = readTrace(in);
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf[0].instrGap, 1u);
}

TEST(FileTrace, RoundTripPreservesAccesses)
{
    CyclicGenerator gen(100, 17, 9, Rng(4));
    TraceBuffer original = TraceBuffer::capture(gen, 200);

    std::ostringstream out;
    writeTrace(out, original);
    std::istringstream in(out.str());
    TraceBuffer loaded = readTrace(in);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::uint64_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].addr, original[i].addr);
        EXPECT_EQ(loaded[i].instrGap, original[i].instrGap);
    }
}

TEST(FileTrace, RoundTripPreservesAnnotation)
{
    CyclicGenerator gen(0, 5, 1, Rng(1));
    TraceBuffer original = TraceBuffer::capture(gen, 20);
    annotateNextUse(original);

    std::ostringstream out;
    writeTrace(out, original);
    std::istringstream in(out.str());
    TraceBuffer loaded = readTrace(in);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::uint64_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i].nextUse, original[i].nextUse);
}

TEST(FileTrace, FileRoundTrip)
{
    StreamGenerator gen(7, 3, 11, Rng(2));
    TraceBuffer original = TraceBuffer::capture(gen, 50);
    const std::string path = "/tmp/fscache_test_trace.txt";
    saveTraceFile(path, original);
    TraceBuffer loaded = loadTraceFile(path);
    ASSERT_EQ(loaded.size(), 50u);
    EXPECT_EQ(loaded[49].addr, original[49].addr);
}

TEST(FileTrace, BadAddressThrowsTyped)
{
    std::istringstream in("zzz 5\n");
    try {
        readTrace(in, "bad.trc");
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        // Diagnostic names the source, field, record index, line
        // and byte offset.
        EXPECT_NE(std::string(e.what()).find("bad.trc"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("bad address 'zzz'"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("record 0"),
                  std::string::npos);
    }
}

TEST(FileTrace, DiagnosticCarriesRecordAndOffset)
{
    // 1st line (10 bytes incl. newline) is fine; the bad token
    // starts record 1 at byte offset 10, line 2.
    std::istringstream in("0x10 5 42\n0x20 oops\n");
    try {
        readTrace(in, "t.trc");
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bad instr-gap 'oops'"),
                  std::string::npos) << msg;
        EXPECT_NE(msg.find("record 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("byte offset 10"), std::string::npos)
            << msg;
    }
}

TEST(FileTrace, TrailingFieldThrows)
{
    std::istringstream in("0x10 5 42 99\n");
    EXPECT_THROW(readTrace(in), TraceFormatError);
}

TEST(FileTrace, EmptyTraceThrowsClearMessage)
{
    std::istringstream in("# only a comment\n\n");
    try {
        readTrace(in, "empty.trc");
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("no accesses"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("empty.trc"),
                  std::string::npos);
    }
}

TEST(FileTrace, MissingFileThrowsTyped)
{
    EXPECT_THROW(loadTraceFile("/nonexistent/file.trc"),
                 TraceFormatError);
}

} // namespace
} // namespace fscache
