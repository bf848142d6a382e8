/**
 * @file
 * Blocked order-statistic index tests, including randomized
 * differential tests against a sorted-vector reference model that
 * drive the index through many block splits and merges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/order_stat_index.hh"
#include "common/random.hh"

namespace fscache
{
namespace
{

TEST(OrderStatIndex, EmptyBasics)
{
    OrderStatIndex<std::uint64_t> t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.empty());
    EXPECT_FALSE(t.contains(42));
    EXPECT_EQ(t.countLess(7), 0u);
}

TEST(OrderStatIndex, SingleElement)
{
    OrderStatIndex<std::uint64_t> t;
    t.insert(5);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.contains(5));
    EXPECT_EQ(t.minKey(), 5u);
    EXPECT_EQ(t.maxKey(), 5u);
    EXPECT_EQ(t.countLess(5), 0u);
    EXPECT_EQ(t.countLess(6), 1u);
    EXPECT_EQ(t.futilityRank(5), 1u);
    t.erase(5);
    EXPECT_TRUE(t.empty());
}

TEST(OrderStatIndex, OrderedInsertAndKth)
{
    OrderStatIndex<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 100; ++k)
        t.insert(k * 3);
    EXPECT_EQ(t.size(), 100u);
    for (std::uint32_t k = 0; k < 100; ++k)
        EXPECT_EQ(t.kth(k), k * 3);
    EXPECT_EQ(t.minKey(), 0u);
    EXPECT_EQ(t.maxKey(), 297u);
}

TEST(OrderStatIndex, CountLessSemantics)
{
    OrderStatIndex<std::uint64_t> t;
    for (std::uint64_t k = 10; k <= 50; k += 10)
        t.insert(k); // 10 20 30 40 50
    EXPECT_EQ(t.countLess(10), 0u);
    EXPECT_EQ(t.countLess(11), 1u);
    EXPECT_EQ(t.countLess(30), 2u);
    EXPECT_EQ(t.countLess(55), 5u);
}

TEST(OrderStatIndex, FutilityRankMatchesPaperDefinition)
{
    // Most useful (largest key) has rank 1; least useful rank M.
    OrderStatIndex<std::uint64_t> t;
    for (std::uint64_t k = 1; k <= 8; ++k)
        t.insert(k);
    EXPECT_EQ(t.futilityRank(8), 1u);
    EXPECT_EQ(t.futilityRank(1), 8u);
    EXPECT_EQ(t.futilityRank(5), 4u);
}

TEST(OrderStatIndex, EraseMiddleKeepsOrder)
{
    OrderStatIndex<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 10; ++k)
        t.insert(k);
    t.erase(4);
    t.erase(7);
    EXPECT_EQ(t.size(), 8u);
    EXPECT_FALSE(t.contains(4));
    std::vector<std::uint64_t> expect{0, 1, 2, 3, 5, 6, 8, 9};
    for (std::uint32_t k = 0; k < expect.size(); ++k)
        EXPECT_EQ(t.kth(k), expect[k]);
}

TEST(OrderStatIndex, BlockPoolReuse)
{
    OrderStatIndex<std::uint64_t> t;
    for (int round = 0; round < 50; ++round) {
        for (std::uint64_t k = 0; k < 64; ++k)
            t.insert(k);
        for (std::uint64_t k = 0; k < 64; ++k)
            t.erase(k);
    }
    EXPECT_TRUE(t.empty());
    t.insert(7);
    EXPECT_EQ(t.minKey(), 7u);
}

TEST(OrderStatIndex, Clear)
{
    OrderStatIndex<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 32; ++k)
        t.insert(k);
    t.clear();
    EXPECT_TRUE(t.empty());
    t.insert(3);
    EXPECT_EQ(t.size(), 1u);
}

TEST(OrderStatIndex, RandomizedDifferential)
{
    OrderStatIndex<std::uint64_t> t;
    std::set<std::uint64_t> ref;
    Rng rng(12345);

    for (int op = 0; op < 20000; ++op) {
        std::uint64_t key = rng.below(5000);
        if (rng.chance(0.5)) {
            if (ref.insert(key).second)
                t.insert(key);
        } else {
            if (ref.erase(key) > 0)
                t.erase(key);
        }
        if (op % 500 == 0 && !ref.empty()) {
            EXPECT_EQ(t.size(), ref.size());
            EXPECT_EQ(t.minKey(), *ref.begin());
            EXPECT_EQ(t.maxKey(), *ref.rbegin());
            std::uint64_t probe = rng.below(5200);
            auto expect_less = static_cast<std::uint32_t>(
                std::distance(ref.begin(), ref.lower_bound(probe)));
            EXPECT_EQ(t.countLess(probe), expect_less);
        }
    }
    EXPECT_EQ(t.size(), ref.size());
}

TEST(OrderStatIndex, RandomizedKth)
{
    OrderStatIndex<std::uint64_t> t;
    std::set<std::uint64_t> ref;
    Rng rng(999);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t key = rng();
        if (ref.insert(key).second)
            t.insert(key);
    }
    std::vector<std::uint64_t> sorted(ref.begin(), ref.end());
    for (std::uint32_t k = 0; k < sorted.size(); k += 37)
        EXPECT_EQ(t.kth(k), sorted[k]);
}

TEST(OrderStatIndex, ClearRetainsBlockPool)
{
    OrderStatIndex<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 256; ++k)
        t.insert(k);
    std::uint32_t pool = t.poolSize();
    EXPECT_GT(pool, 1u);

    // clear() must hand every block back without shrinking the
    // pool: a clear + refill cycle allocates nothing.
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.poolSize(), pool);
    for (std::uint64_t k = 0; k < 256; ++k)
        t.insert(1000 + k);
    EXPECT_EQ(t.size(), 256u);
    EXPECT_EQ(t.poolSize(), pool) << "refill after clear grew the "
                                     "pool";
    EXPECT_EQ(t.minKey(), 1000u);
    EXPECT_EQ(t.maxKey(), 1255u);
    EXPECT_EQ(t.auditInvariants(), "");

    // Repeated cycles stay allocation-stable too.
    for (int round = 0; round < 5; ++round) {
        t.clear();
        for (std::uint64_t k = 0; k < 256; ++k)
            t.insert(k * 7);
        EXPECT_EQ(t.poolSize(), pool);
    }
}

TEST(OrderStatIndex, StructKeyWithTieBreak)
{
    struct Key
    {
        std::uint64_t primary;
        std::uint32_t line;
        bool operator<(const Key &o) const
        {
            if (primary != o.primary)
                return primary < o.primary;
            return line < o.line;
        }
        bool operator==(const Key &o) const
        {
            return primary == o.primary && line == o.line;
        }
    };
    OrderStatIndex<Key> t;
    // Same primary, distinct lines — must coexist.
    t.insert({0, 1});
    t.insert({0, 2});
    t.insert({0, 3});
    t.insert({5, 0});
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.minKey().line, 1u);
    EXPECT_EQ(t.maxKey().primary, 5u);
    t.erase({0, 2});
    EXPECT_EQ(t.size(), 3u);
    EXPECT_FALSE(t.contains({0, 2}));
    EXPECT_TRUE(t.contains({0, 3}));
}

/** Key shaped like the keyed rankings' (primary, line id). */
struct PairKey
{
    std::uint64_t primary;
    std::uint32_t line;

    bool
    operator<(const PairKey &o) const
    {
        if (primary != o.primary)
            return primary < o.primary;
        return line < o.line;
    }

    bool
    operator==(const PairKey &o) const
    {
        return primary == o.primary && line == o.line;
    }
};

/**
 * Randomized differential run against a sorted vector: 200k mixed
 * operations over pair keys, with the population swept from empty
 * up past several thousand keys and back down, twice, so blocks
 * split and merge many times and the index passes through the
 * empty <-> one-key transitions. Primaries come from a small range
 * so many keys share one primary and differ only by line id, like
 * OPT's never-used lines. Every query is checked on every step; the
 * structural audit runs on a stride.
 */
TEST(OrderStatIndex, RandomizedDifferentialAgainstSortedVector)
{
    OrderStatIndex<PairKey> t;
    std::vector<PairKey> ref;
    Rng rng(20141213);
    constexpr int kOps = 200000;
    constexpr std::uint32_t kLines = 6000;
    std::vector<PairKey> keyOf(kLines);
    std::vector<std::uint8_t> present(kLines, 0);
    std::uint32_t emptyVisits = 0;
    std::size_t peak = 0;

    auto refLess = [&](const PairKey &k) {
        return static_cast<std::uint32_t>(
            std::lower_bound(ref.begin(), ref.end(), k) - ref.begin());
    };
    auto randomKey = [&](std::uint32_t line) {
        // Half the keys share primary 0 (never used again).
        std::uint64_t primary = rng.chance(0.5) ? 0 : rng.below(4000);
        return PairKey{primary, line};
    };

    for (int op = 0; op < kOps; ++op) {
        // Target population: a triangle wave 0 -> 5000 -> 0, twice,
        // pulled toward by biasing inserts against erases.
        int phase = op % (kOps / 2);
        double target = phase < kOps / 4
                            ? phase * 5000.0 / (kOps / 4)
                            : (kOps / 2 - phase) * 5000.0 / (kOps / 4);
        double pInsert = ref.size() < target ? 0.8 : 0.2;
        auto reKeyLine = [&](std::uint32_t line) {
            PairKey k = randomKey(line);
            t.reKey(keyOf[line], k);
            ref.erase(ref.begin() + refLess(keyOf[line]));
            ref.insert(ref.begin() + refLess(k), k);
            keyOf[line] = k;
        };
        if (ref.empty() || rng.uniform() < pInsert) {
            auto line = static_cast<std::uint32_t>(rng.below(kLines));
            if (present[line]) {
                reKeyLine(line);
            } else {
                PairKey k = randomKey(line);
                t.insert(k);
                ref.insert(ref.begin() + refLess(k), k);
                keyOf[line] = k;
                present[line] = 1;
            }
        } else {
            std::uint32_t line = ref[rng.below(ref.size())].line;
            if (rng.chance(0.6)) {
                t.erase(keyOf[line]);
                ref.erase(ref.begin() + refLess(keyOf[line]));
                present[line] = 0;
            } else {
                reKeyLine(line);
            }
        }

        ASSERT_EQ(t.size(), ref.size()) << "op " << op;
        ASSERT_EQ(t.empty(), ref.empty()) << "op " << op;
        peak = std::max(peak, ref.size());
        if (ref.empty()) {
            ++emptyVisits;
            EXPECT_EQ(t.countLess({1, 0}), 0u);
        } else {
            ASSERT_TRUE(t.minKey() == ref.front()) << "op " << op;
            ASSERT_TRUE(t.maxKey() == ref.back()) << "op " << op;
            auto k = static_cast<std::uint32_t>(rng.below(ref.size()));
            ASSERT_TRUE(t.kth(k) == ref[k]) << "op " << op;
            ASSERT_TRUE(t.contains(ref[k])) << "op " << op;
            ASSERT_EQ(t.futilityRank(ref[k]), ref.size() - k);
        }
        PairKey probe{rng.below(4001), static_cast<std::uint32_t>(
                                           rng.below(kLines + 1))};
        ASSERT_EQ(t.countLess(probe), refLess(probe)) << "op " << op;
        bool inRef = std::binary_search(ref.begin(), ref.end(), probe);
        ASSERT_EQ(t.contains(probe), inRef) << "op " << op;
        if (op % 997 == 0) {
            ASSERT_EQ(t.auditInvariants(), "") << "op " << op;
        }
    }
    EXPECT_GE(emptyVisits, 2u) << "the run never drained the index";
    EXPECT_GT(peak, 4000u);
    EXPECT_EQ(t.auditInvariants(), "");
    // Several thousand keys at the peaks means dozens of blocks.
    EXPECT_GT(t.poolSize(), 50u);
}

/** Sequential and reversed bulk patterns hit the split and merge
 *  edges at the two ends of the directory. */
TEST(OrderStatIndex, AscendingFillDescendingDrain)
{
    OrderStatIndex<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 5000; ++k)
        t.insert(k);
    EXPECT_EQ(t.auditInvariants(), "");
    for (std::uint64_t k = 5000; k-- > 0;) {
        t.erase(k);
        if (k % 499 == 0) {
            ASSERT_EQ(t.auditInvariants(), "") << k;
        }
    }
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.auditInvariants(), "");
    for (std::uint64_t k = 0; k < 5000; k += 2)
        t.insert(k);
    for (std::uint64_t k = 0; k < 5000; k += 2)
        t.erase(k);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.auditInvariants(), "");
}

/** reKey inside one leaf, across leaves, and to the two ends. */
TEST(OrderStatIndex, ReKeyMovesKeys)
{
    OrderStatIndex<std::uint64_t> t;
    for (std::uint64_t k = 1; k <= 300; ++k)
        t.insert(k * 10);
    t.reKey(50, 55);     // same leaf, same slot
    t.reKey(20, 65);     // same leaf, forward
    t.reKey(3000, 5);    // last leaf to the very front
    t.reKey(10, 99999);  // front to the very back
    t.reKey(1500, 1501); // mid leaf, in place
    EXPECT_EQ(t.auditInvariants(), "");
    EXPECT_EQ(t.size(), 300u);
    EXPECT_EQ(t.minKey(), 5u);
    EXPECT_EQ(t.maxKey(), 99999u);
    EXPECT_FALSE(t.contains(20));
    EXPECT_TRUE(t.contains(65));
    EXPECT_EQ(t.countLess(60), 4u); // 5, 30, 40, 55
    EXPECT_EQ(t.futilityRank(65), 300u - 5u);
}

} // namespace
} // namespace fscache
