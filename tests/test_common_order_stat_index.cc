/**
 * @file
 * Blocked order-statistic index tests, including randomized
 * differential tests against a sorted-vector reference model that
 * drive the index through many block splits and merges, and check
 * every line's handle rank against the model after every operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/order_stat_index.hh"
#include "common/random.hh"

namespace fscache
{

using Index = OrderStatIndex<LineKey>;

/** Read-only view of the index's blocks, so the handle test can
 *  tell which rebalancing path an operation is about to take. */
template <>
struct OrderStatIndex<LineKey>::TestAccess
{
    static std::uint32_t
    liveBlocks(const Index &t)
    {
        return static_cast<std::uint32_t>(t.blockOf_.size());
    }

    static std::uint32_t
    fill(const Index &t, std::uint32_t d)
    {
        return t.blocks_[t.blockOf_[d]].n;
    }

    /** Directory entry of the block holding a present line. */
    static std::uint32_t
    entryOf(const Index &t, LineId line)
    {
        return t.dirPos_[t.handles_->h_[line] >> kSlotBits];
    }

    /** True when reKey of entry d's key to k stays in that leaf. */
    static bool
    staysInLeaf(const Index &t, std::uint32_t d, const LineKey &k)
    {
        return (d == 0 || !(k < t.first_[d])) &&
               (d + 1 == t.first_.size() || k < t.first_[d + 1]);
    }
};

namespace
{

using Access = Index::TestAccess;

/** An index with its own handle table for lines [0, lines). */
struct Harness
{
    explicit Harness(LineId lines = 1u << 17) : handles(lines) {}

    LineHandles handles;
    Index t{handles};
};

/** The key k of line k: distinct values give distinct lines. */
LineKey
K(std::uint64_t k)
{
    return LineKey{k, static_cast<LineId>(k)};
}

/** Futility rank (paper's r): the most useful line has rank 1. */
std::uint32_t
futilityRank(const Index &t, LineId line)
{
    return t.size() - t.rankOf(line);
}

TEST(OrderStatIndex, EmptyBasics)
{
    Harness h;
    Index &t = h.t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.empty());
    EXPECT_FALSE(t.contains(K(42)));
    EXPECT_FALSE(t.holds(42));
    EXPECT_EQ(t.countLess(K(7)), 0u);
}

TEST(OrderStatIndex, SingleElement)
{
    Harness h;
    Index &t = h.t;
    t.insert(K(5));
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.contains(K(5)));
    EXPECT_TRUE(t.holds(5));
    EXPECT_TRUE(h.handles.holds(5));
    EXPECT_TRUE(t.keyOf(5) == K(5));
    EXPECT_EQ(t.minKey().primary, 5u);
    EXPECT_EQ(t.maxKey().primary, 5u);
    EXPECT_EQ(t.countLess(K(5)), 0u);
    EXPECT_EQ(t.countLess(K(6)), 1u);
    EXPECT_EQ(t.rankOf(5), 0u);
    EXPECT_EQ(futilityRank(t, 5), 1u);
    t.erase(K(5));
    EXPECT_TRUE(t.empty());
    EXPECT_FALSE(h.handles.holds(5));
}

TEST(OrderStatIndex, OrderedInsertAndKth)
{
    Harness h;
    Index &t = h.t;
    for (std::uint64_t k = 0; k < 100; ++k)
        t.insert(K(k * 3));
    EXPECT_EQ(t.size(), 100u);
    for (std::uint32_t k = 0; k < 100; ++k) {
        EXPECT_EQ(t.kth(k).primary, k * 3);
        EXPECT_EQ(t.rankOf(k * 3), k);
    }
    EXPECT_EQ(t.minKey().primary, 0u);
    EXPECT_EQ(t.maxKey().primary, 297u);
}

TEST(OrderStatIndex, CountLessSemantics)
{
    Harness h;
    Index &t = h.t;
    for (std::uint64_t k = 10; k <= 50; k += 10)
        t.insert(K(k)); // 10 20 30 40 50
    EXPECT_EQ(t.countLess(K(10)), 0u);
    EXPECT_EQ(t.countLess(K(11)), 1u);
    EXPECT_EQ(t.countLess(K(30)), 2u);
    EXPECT_EQ(t.countLess(K(55)), 5u);
    EXPECT_EQ(t.rankOf(30), 2u);
}

TEST(OrderStatIndex, FutilityRankMatchesPaperDefinition)
{
    // Most useful (largest key) has rank 1; least useful rank M.
    Harness h;
    Index &t = h.t;
    for (std::uint64_t k = 1; k <= 8; ++k)
        t.insert(K(k));
    EXPECT_EQ(futilityRank(t, 8), 1u);
    EXPECT_EQ(futilityRank(t, 1), 8u);
    EXPECT_EQ(futilityRank(t, 5), 4u);
}

TEST(OrderStatIndex, EraseMiddleKeepsOrder)
{
    Harness h;
    Index &t = h.t;
    for (std::uint64_t k = 0; k < 10; ++k)
        t.insert(K(k));
    t.erase(K(4));
    t.erase(K(7));
    EXPECT_EQ(t.size(), 8u);
    EXPECT_FALSE(t.contains(K(4)));
    EXPECT_FALSE(t.holds(4));
    std::vector<std::uint64_t> expect{0, 1, 2, 3, 5, 6, 8, 9};
    for (std::uint32_t k = 0; k < expect.size(); ++k) {
        EXPECT_EQ(t.kth(k).primary, expect[k]);
        EXPECT_EQ(t.rankOf(static_cast<LineId>(expect[k])), k);
    }
}

TEST(OrderStatIndex, BlockPoolReuse)
{
    Harness h;
    Index &t = h.t;
    for (int round = 0; round < 50; ++round) {
        for (std::uint64_t k = 0; k < 64; ++k)
            t.insert(K(k));
        for (std::uint64_t k = 0; k < 64; ++k)
            t.erase(K(k));
    }
    EXPECT_TRUE(t.empty());
    t.insert(K(7));
    EXPECT_EQ(t.minKey().primary, 7u);
}

TEST(OrderStatIndex, Clear)
{
    Harness h;
    Index &t = h.t;
    for (std::uint64_t k = 0; k < 32; ++k)
        t.insert(K(k));
    t.clear();
    EXPECT_TRUE(t.empty());
    // clear() releases the handles too, so the lines may come back.
    for (LineId line = 0; line < 32; ++line)
        EXPECT_FALSE(h.handles.holds(line)) << line;
    t.insert(K(3));
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.rankOf(3), 0u);
}

TEST(OrderStatIndex, RandomizedDifferential)
{
    Harness h;
    Index &t = h.t;
    std::set<std::uint64_t> ref;
    Rng rng(12345);

    for (int op = 0; op < 20000; ++op) {
        std::uint64_t key = rng.below(5000);
        if (rng.chance(0.5)) {
            if (ref.insert(key).second)
                t.insert(K(key));
        } else {
            if (ref.erase(key) > 0)
                t.erase(K(key));
        }
        if (op % 500 == 0 && !ref.empty()) {
            EXPECT_EQ(t.size(), ref.size());
            EXPECT_EQ(t.minKey().primary, *ref.begin());
            EXPECT_EQ(t.maxKey().primary, *ref.rbegin());
            std::uint64_t probe = rng.below(5200);
            auto expect_less = static_cast<std::uint32_t>(
                std::distance(ref.begin(), ref.lower_bound(probe)));
            EXPECT_EQ(t.countLess(K(probe)), expect_less);
        }
    }
    EXPECT_EQ(t.size(), ref.size());
}

TEST(OrderStatIndex, RandomizedKth)
{
    Harness h(2000);
    Index &t = h.t;
    std::set<std::uint64_t> ref;
    Rng rng(999);
    for (LineId i = 0; i < 2000; ++i) {
        std::uint64_t key = rng();
        if (ref.insert(key).second)
            t.insert(LineKey{key, i});
    }
    std::vector<std::uint64_t> sorted(ref.begin(), ref.end());
    for (std::uint32_t k = 0; k < sorted.size(); k += 37)
        EXPECT_EQ(t.kth(k).primary, sorted[k]);
}

TEST(OrderStatIndex, ClearRetainsBlockPool)
{
    Harness h;
    Index &t = h.t;
    for (std::uint64_t k = 0; k < 256; ++k)
        t.insert(K(k));
    std::uint32_t pool = t.poolSize();
    EXPECT_GT(pool, 1u);

    // clear() must hand every block back without shrinking the
    // pool: a clear + refill cycle allocates nothing.
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.poolSize(), pool);
    for (std::uint64_t k = 0; k < 256; ++k)
        t.insert(K(1000 + k));
    EXPECT_EQ(t.size(), 256u);
    EXPECT_EQ(t.poolSize(), pool) << "refill after clear grew the "
                                     "pool";
    EXPECT_EQ(t.minKey().primary, 1000u);
    EXPECT_EQ(t.maxKey().primary, 1255u);
    EXPECT_EQ(t.auditInvariants(), "");

    // Repeated cycles stay allocation-stable too.
    for (int round = 0; round < 5; ++round) {
        t.clear();
        for (std::uint64_t k = 0; k < 256; ++k)
            t.insert(K(k * 7));
        EXPECT_EQ(t.poolSize(), pool);
    }
    EXPECT_EQ(t.auditInvariants(), "");
}

TEST(OrderStatIndex, StructKeyWithTieBreak)
{
    // Any key type with a `line` member works, not only LineKey.
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
    LineHandles handles(8);
    OrderStatIndex<Key> t(handles);
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
    EXPECT_EQ(t.rankOf(3), 1u);
    EXPECT_EQ(t.auditInvariants(), "");
}

/**
 * Randomized differential run against a sorted vector: 200k mixed
 * operations over line keys, with the population swept from empty
 * up past several thousand keys and back down, twice, so blocks
 * split and merge many times and the index passes through the
 * empty <-> one-key transitions. Primaries come from a small range
 * so many keys share one primary and differ only by line id, like
 * OPT's never-used lines. Every query is checked on every step; the
 * structural audit runs on a stride.
 */
TEST(OrderStatIndex, RandomizedDifferentialAgainstSortedVector)
{
    constexpr int kOps = 200000;
    constexpr std::uint32_t kLines = 6000;
    Harness h(kLines);
    Index &t = h.t;
    std::vector<LineKey> ref;
    Rng rng(20141213);
    std::vector<LineKey> keyOf(kLines);
    std::vector<std::uint8_t> present(kLines, 0);
    std::uint32_t emptyVisits = 0;
    std::size_t peak = 0;

    auto refLess = [&](const LineKey &k) {
        return static_cast<std::uint32_t>(
            std::lower_bound(ref.begin(), ref.end(), k) - ref.begin());
    };
    auto randomKey = [&](std::uint32_t line) {
        // Half the keys share primary 0 (never used again).
        std::uint64_t primary = rng.chance(0.5) ? 0 : rng.below(4000);
        return LineKey{primary, line};
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
            LineKey k = randomKey(line);
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
                LineKey k = randomKey(line);
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
            ASSERT_EQ(futilityRank(t, ref[k].line), ref.size() - k);
        }
        LineKey probe{rng.below(4001), static_cast<std::uint32_t>(
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

/**
 * Handle differential: random insert, erase and reKey against a
 * sorted-vector oracle, checking after every operation that the
 * handle rank of every present line equals its oracle rank and that
 * no absent line is held. Before each operation the test reads
 * which path it will take, and at the end requires that the run
 * took every one that moves keys: split, merge, even-out, release
 * of the last block, and reKey both inside one leaf and across
 * leaves.
 */
TEST(OrderStatIndex, HandleRanksMatchOracleThroughEveryRebalance)
{
    constexpr int kOps = 40000;
    constexpr std::uint32_t kLines = 1500;
    Harness h(kLines);
    Index &t = h.t;
    std::vector<LineKey> ref;
    std::vector<LineKey> keyOf(kLines);
    std::vector<std::uint8_t> present(kLines, 0);
    Rng rng(0x5eed);
    int splits = 0, merges = 0, evenOuts = 0, releases = 0;
    int inLeaf = 0, crossLeaf = 0;

    auto refLess = [&](const LineKey &k) {
        return static_cast<std::uint32_t>(
            std::lower_bound(ref.begin(), ref.end(), k) - ref.begin());
    };
    // Predict a rebalance when removing line's key leaves its block
    // under the minimum fill.
    auto noteRemoval = [&](LineId line) {
        std::uint32_t live = Access::liveBlocks(t);
        std::uint32_t d = Access::entryOf(t, line);
        if (live == 1 || Access::fill(t, d) != Index::kMinFill)
            return;
        std::uint32_t l = d + 1 < live ? d : d - 1;
        std::uint32_t total =
            Access::fill(t, l) + Access::fill(t, l + 1) - 1;
        if (total <= Index::kBlockKeys * 3 / 4)
            ++merges;
        else
            ++evenOuts;
    };

    for (int op = 0; op < kOps; ++op) {
        // Triangle wave 0 -> 1200 -> 0, four times.
        int period = kOps / 4;
        int phase = op % period;
        double target = phase < period / 2
                            ? phase * 1200.0 / (period / 2)
                            : (period - phase) * 1200.0 / (period / 2);
        std::uint32_t liveBefore = Access::liveBlocks(t);
        // Grow toward the target through random lines; shrink
        // through present ones.
        bool grow = ref.empty() || ref.size() < target;
        auto line = grow ? static_cast<LineId>(rng.below(kLines))
                         : ref[rng.below(ref.size())].line;
        // Narrow primaries early in each wave keep reKeys in one
        // leaf; wide ones send them across leaves.
        std::uint64_t primary = rng.chance(0.5)
                                    ? keyOf[line].primary + rng.below(3)
                                    : rng.below(1u << 20);
        LineKey k{primary, line};
        if (present[line]) {
            LineKey old = keyOf[line];
            if (k == old)
                continue;
            if (!grow && rng.chance(0.6)) {
                noteRemoval(line);
                t.erase(old);
                ref.erase(ref.begin() + refLess(old));
                present[line] = 0;
                if (liveBefore == 1 && t.empty())
                    ++releases;
            } else {
                std::uint32_t d = Access::entryOf(t, line);
                if (Access::staysInLeaf(t, d, k)) {
                    ++inLeaf;
                } else {
                    ++crossLeaf;
                    noteRemoval(line);
                }
                t.reKey(old, k);
                ref.erase(ref.begin() + refLess(old));
                ref.insert(ref.begin() + refLess(k), k);
                keyOf[line] = k;
            }
        } else {
            t.insert(k);
            ref.insert(ref.begin() + refLess(k), k);
            keyOf[line] = k;
            present[line] = 1;
        }
        std::uint32_t liveAfter = Access::liveBlocks(t);
        splits += liveAfter > liveBefore;

        ASSERT_EQ(t.size(), ref.size()) << "op " << op;
        for (std::uint32_t r = 0; r < ref.size(); ++r) {
            ASSERT_EQ(t.rankOf(ref[r].line), r)
                << "op " << op << " line " << ref[r].line;
        }
        for (LineId l = 0; l < kLines; ++l) {
            ASSERT_EQ(h.handles.holds(l), present[l] != 0)
                << "op " << op << " line " << l;
        }
        if (op % 499 == 0) {
            ASSERT_EQ(t.auditInvariants(), "") << "op " << op;
        }
    }
    EXPECT_EQ(t.auditInvariants(), "");
    EXPECT_GT(splits, 0);
    EXPECT_GT(merges, 0);
    EXPECT_GT(evenOuts, 0);
    EXPECT_GT(releases, 0);
    EXPECT_GT(inLeaf, 0);
    EXPECT_GT(crossLeaf, 0);
}

/** Two indexes share one handle table, as the partitions of a keyed
 *  ranking do; a line moves between them and each sees only its
 *  own lines. */
TEST(OrderStatIndex, SharedHandlesAcrossIndexes)
{
    LineHandles handles(400);
    Index a(handles);
    Index b(handles);
    for (std::uint64_t k = 0; k < 200; ++k)
        a.insert(K(k));
    for (std::uint64_t k = 200; k < 400; ++k)
        b.insert(K(k));
    EXPECT_TRUE(a.holds(10));
    EXPECT_FALSE(b.holds(10));
    EXPECT_FALSE(b.contains(K(10)));
    EXPECT_TRUE(b.holds(210));
    EXPECT_FALSE(a.holds(210));

    // Move line 10 from a to b, like a partition retag.
    a.erase(K(10));
    b.insert(LineKey{1000, 10});
    EXPECT_FALSE(a.holds(10));
    EXPECT_TRUE(b.holds(10));
    EXPECT_EQ(b.rankOf(10), 200u);
    EXPECT_EQ(a.rankOf(11), 10u);
    EXPECT_EQ(a.auditInvariants(), "");
    EXPECT_EQ(b.auditInvariants(), "");
}

/** Sequential and reversed bulk patterns hit the split and merge
 *  edges at the two ends of the directory. */
TEST(OrderStatIndex, AscendingFillDescendingDrain)
{
    Harness h(5000);
    Index &t = h.t;
    for (std::uint64_t k = 0; k < 5000; ++k)
        t.insert(K(k));
    EXPECT_EQ(t.auditInvariants(), "");
    for (std::uint64_t k = 5000; k-- > 0;) {
        t.erase(K(k));
        if (k % 499 == 0) {
            ASSERT_EQ(t.auditInvariants(), "") << k;
        }
    }
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.auditInvariants(), "");
    for (std::uint64_t k = 0; k < 5000; k += 2)
        t.insert(K(k));
    for (std::uint64_t k = 0; k < 5000; k += 2)
        t.erase(K(k));
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.auditInvariants(), "");
}

/** reKey inside one leaf, across leaves, and to the two ends. */
TEST(OrderStatIndex, ReKeyMovesKeys)
{
    Harness h;
    Index &t = h.t;
    for (std::uint64_t k = 1; k <= 300; ++k)
        t.insert(K(k * 10));
    // Each key keeps its line (its original value) as it moves.
    auto move = [&](std::uint64_t from, std::uint64_t to) {
        t.reKey(K(from), LineKey{to, static_cast<LineId>(from)});
    };
    move(50, 55);     // same leaf, same slot
    move(20, 65);     // same leaf, forward
    move(3000, 5);    // last leaf to the very front
    move(10, 99999);  // front to the very back
    move(1500, 1501); // mid leaf, in place
    EXPECT_EQ(t.auditInvariants(), "");
    EXPECT_EQ(t.size(), 300u);
    EXPECT_EQ(t.minKey().primary, 5u);
    EXPECT_EQ(t.maxKey().primary, 99999u);
    EXPECT_FALSE(t.contains(K(20)));
    EXPECT_TRUE(t.contains(LineKey{65, 20}));
    EXPECT_EQ(t.countLess(K(60)), 4u); // 5, 30, 40, 55
    EXPECT_EQ(futilityRank(t, 20), 300u - 5u);
    EXPECT_EQ(t.rankOf(3000), 0u);
    EXPECT_EQ(t.rankOf(10), 299u);
}

} // namespace
} // namespace fscache
