/**
 * @file
 * Failure-injection tests: the library's invariants must trip
 * fs_assert (abort) on misuse rather than corrupt state silently.
 */

#include <gtest/gtest.h>

#include "analytic/scaling_solver.hh"
#include "cache/set_assoc_array.hh"
#include "cache/tag_store.hh"
#include "common/order_stat_index.hh"
#include "sim/experiment.hh"
#include "stats/table_printer.hh"

namespace fscache
{
namespace
{

using ErrorDeathTest = ::testing::Test;

/** An index over lines [0, 8) with its own handle table. */
struct SmallIndex
{
    LineHandles handles{8};
    OrderStatIndex<LineKey> t{handles};
};

TEST(ErrorDeathTest, IndexEraseAbsentKey)
{
    SmallIndex s;
    s.t.insert({1, 1});
    EXPECT_DEATH(s.t.erase({2, 2}), "assertion");
    // A held line under another key is absent too.
    EXPECT_DEATH(s.t.erase({2, 1}), "assertion");
}

TEST(ErrorDeathTest, IndexEraseFromEmpty)
{
    SmallIndex s;
    EXPECT_DEATH(s.t.erase({2, 2}), "assertion");
}

TEST(ErrorDeathTest, IndexReKeyAbsentKey)
{
    SmallIndex s;
    s.t.insert({1, 1});
    EXPECT_DEATH(s.t.reKey({2, 2}, {3, 2}), "assertion");
    EXPECT_DEATH(s.t.reKey({2, 1}, {3, 1}), "assertion");
}

TEST(ErrorDeathTest, IndexEraseFromAnotherIndex)
{
    // Two indexes share one handle table: a line held by one is
    // absent from the other.
    SmallIndex s;
    OrderStatIndex<LineKey> other(s.handles);
    s.t.insert({1, 1});
    other.insert({1, 2});
    EXPECT_DEATH(other.erase({1, 1}), "assertion");
    EXPECT_DEATH(s.t.insert({5, 2}), "assertion");
}

TEST(ErrorDeathTest, IndexKthOutOfRange)
{
    SmallIndex s;
    s.t.insert({1, 1});
    EXPECT_DEATH(s.t.kth(1), "assertion");
}

TEST(ErrorDeathTest, IndexMinOfEmpty)
{
    SmallIndex s;
    EXPECT_DEATH(s.t.minKey(), "assertion");
}

TEST(ErrorDeathTest, IndexMaxOfEmpty)
{
    SmallIndex s;
    EXPECT_DEATH(s.t.maxKey(), "assertion");
}

TEST(ErrorDeathTest, TagStoreDoubleInstall)
{
    TagStore tags(4);
    tags.install(0, 100, 0);
    EXPECT_DEATH(tags.install(0, 200, 0), "assertion");
}

TEST(ErrorDeathTest, TagStoreDuplicateAddress)
{
    TagStore tags(4);
    tags.install(0, 100, 0);
    EXPECT_DEATH(tags.install(1, 100, 0), "assertion");
}

TEST(ErrorDeathTest, TagStoreEvictInvalid)
{
    TagStore tags(4);
    EXPECT_DEATH(tags.evict(2), "assertion");
}

TEST(ErrorDeathTest, TagStoreBadMove)
{
    TagStore tags(4);
    tags.install(0, 100, 0);
    tags.install(1, 101, 0);
    EXPECT_DEATH(tags.move(0, 1), "assertion"); // dst valid
    EXPECT_DEATH(tags.move(2, 3), "assertion"); // src invalid
}

TEST(ErrorDeathTest, SetAssocWaysMustDivideLines)
{
    EXPECT_DEATH(SetAssocArray(100, 16, HashKind::Modulo, 1),
                 "assertion");
}

TEST(ErrorDeathTest, TableRowWidthMismatch)
{
    TablePrinter t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "assertion");
}

TEST(ErrorDeathTest, AccessUnknownPartition)
{
    CacheSpec spec;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    EXPECT_DEATH(cache->access(5, 1), "assertion");
}

TEST(ErrorDeathTest, TargetForUnknownPartition)
{
    CacheSpec spec;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    EXPECT_DEATH(cache->setTarget(3, 10), "assertion");
}

TEST(ErrorTyped, InfeasiblePartitioningThrows)
{
    // Typed and recoverable: a sweep cell exploring the config
    // space catches this (or is quarantined by the cell guard)
    // instead of the whole process dying.
    try {
        analytic::scalingFactorTwoPart(0.99, 0.5, 16);
        FAIL() << "expected InfeasiblePartitioningError";
    } catch (const analytic::InfeasiblePartitioningError &e) {
        EXPECT_NE(std::string(e.what()).find("infeasible"),
                  std::string::npos);
    }
}

TEST(ErrorDeathTest, RngBelowZero)
{
    Rng rng(1);
    EXPECT_DEATH(rng.below(0), "assertion");
}

} // namespace
} // namespace fscache
