/**
 * @file
 * Fenwick occupancy tree (common/fenwick.hh) and the Fenwick-backed
 * recency ranking base (ranking/recency_ranking_base.hh): the
 * primitive against a naive mark array, its bulk build against
 * sequential marks, the full rankings (exact LRU and Random) against
 * a naive recency-list reference through randomized op sequences
 * long enough to force many stamp-axis renumberings, and the
 * corruption fault hook's detectability contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/fenwick.hh"
#include "common/random.hh"
#include "ranking/exact_lru_ranking.hh"
#include "ranking/random_ranking.hh"

namespace fscache
{
namespace
{

TEST(Fenwick, MatchesNaiveMarkArray)
{
    constexpr std::uint32_t kCap = 64;
    FenwickTree fen(kCap);
    FenwickTree bulk(kCap);
    std::vector<std::uint8_t> naive(kCap, 0);
    Rng rng(31);
    for (int round = 0; round < 4000; ++round) {
        std::uint32_t pos = rng.below(kCap);
        if (naive[pos]) {
            fen.unmark(pos);
            naive[pos] = 0;
        } else {
            fen.mark(pos);
            naive[pos] = 1;
        }

        std::vector<std::uint32_t> marked;
        for (std::uint32_t p = 0; p < kCap; ++p) {
            if (naive[p])
                marked.push_back(p);
        }
        ASSERT_EQ(fen.total(), marked.size());
        std::uint32_t probe = rng.below(kCap + 1);
        std::uint32_t want_below = 0;
        for (std::uint32_t p = 0; p < probe; ++p)
            want_below += naive[p];
        ASSERT_EQ(fen.countBelow(probe), want_below) << probe;
        if (!marked.empty()) {
            ASSERT_EQ(fen.selectKth(0), marked.front());
            auto k = static_cast<std::uint32_t>(
                rng.below(marked.size()));
            ASSERT_EQ(fen.selectKth(k), marked[k]) << k;
        }

        // A bulk build over a random prefix must equal marking the
        // same positions one by one: every prefix count and select
        // agrees.
        std::uint32_t n = rng.below(kCap + 1);
        bulk.build(n, [&](std::uint32_t p) { return naive[p] != 0; });
        FenwickTree seq(kCap);
        for (std::uint32_t p = 0; p < n; ++p) {
            if (naive[p])
                seq.mark(p);
        }
        ASSERT_EQ(bulk.total(), seq.total());
        for (std::uint32_t p = 0; p <= kCap; ++p)
            ASSERT_EQ(bulk.countBelow(p), seq.countBelow(p)) << p;
        for (std::uint32_t k = 0; k < seq.total(); ++k)
            ASSERT_EQ(bulk.selectKth(k), seq.selectKth(k)) << k;
    }
}

TEST(Fenwick, EmptyBuildKeepsCapacity)
{
    FenwickTree fen(16);
    fen.mark(3);
    fen.mark(9);
    fen.build(0, [](std::uint32_t) { return true; });
    EXPECT_EQ(fen.total(), 0u);
    EXPECT_EQ(fen.capacity(), 16u);
    EXPECT_EQ(fen.countBelow(16), 0u);
    fen.mark(15);
    EXPECT_EQ(fen.selectKth(0), 15u);
}

/**
 * Naive reference for the recency order: a single oldest-to-newest
 * list plus a partition tag per line. Rank queries scan the list —
 * the definitionally-correct O(n) answers the Fenwick base must
 * reproduce exactly.
 */
class NaiveRecency
{
  public:
    void
    install(LineId id, PartId part)
    {
        order_.push_back(id);
        part_[id] = part;
    }

    void
    hit(LineId id)
    {
        order_.erase(std::find(order_.begin(), order_.end(), id));
        order_.push_back(id);
    }

    void
    evict(LineId id)
    {
        order_.erase(std::find(order_.begin(), order_.end(), id));
        part_.erase(part_.find(id));
    }

    void
    relocate(LineId from, LineId to)
    {
        *std::find(order_.begin(), order_.end(), from) = to;
        part_[to] = part_[from];
        part_.erase(part_.find(from));
    }

    void retag(LineId id, PartId part) { part_[id] = part; }

    bool contains(LineId id) const { return part_.count(id) != 0; }

    std::size_t lines() const { return order_.size(); }

    LineId
    lineAt(std::size_t i) const
    {
        return order_[i];
    }

    PartId partOf(LineId id) const { return part_.at(id); }

    std::uint32_t
    partLines(PartId part) const
    {
        std::uint32_t n = 0;
        for (LineId id : order_)
            n += part_.at(id) == part;
        return n;
    }

    double
    exactFutility(LineId id) const
    {
        PartId part = part_.at(id);
        std::uint32_t size = 0;
        std::uint32_t older = 0;
        for (LineId other : order_) {
            if (part_.at(other) != part)
                continue;
            ++size;
            if (other == id)
                older = size - 1;
        }
        return static_cast<double>(size - older) /
               static_cast<double>(size);
    }

    LineId
    worstIn(PartId part) const
    {
        for (LineId id : order_)
            if (part_.at(id) == part)
                return id;
        return kInvalidLine;
    }

  private:
    std::vector<LineId> order_;
    std::map<LineId, PartId> part_;
};

/**
 * Drive a RecencyRankingBase client and the naive reference through
 * the same randomized install/hit/evict/retag/relocate sequence,
 * comparing every query after every op. 6000 ops over 24 line slots
 * churn through the stamp axis (capacity 64) dozens of times, so
 * the renumbering path runs under every op mix.
 */
void
checkAgainstNaive(RecencyRankingBase &rank, LineId num_lines)
{
    constexpr PartId kParts = 3;
    NaiveRecency naive;
    Rng rng(4242);

    auto randomPresent = [&]() -> LineId {
        std::size_t i = rng.below(naive.lines());
        return naive.lineAt(i);
    };

    for (int op = 0; op < 6000; ++op) {
        std::uint32_t kind = rng.below(10);
        if (naive.lines() == 0 ||
            (kind < 3 && naive.lines() < num_lines)) {
            LineId id;
            do {
                id = rng.below(num_lines);
            } while (naive.contains(id));
            auto part = static_cast<PartId>(rng.below(kParts));
            rank.onInstall(id, part, kNeverUsed);
            naive.install(id, part);
        } else if (kind < 7) {
            LineId id = randomPresent();
            rank.onHit(id, kNeverUsed);
            naive.hit(id);
        } else if (kind < 8) {
            LineId id = randomPresent();
            rank.onEvict(id);
            naive.evict(id);
        } else if (kind < 9) {
            LineId id = randomPresent();
            auto part = static_cast<PartId>(rng.below(kParts));
            rank.onRetag(id, part);
            naive.retag(id, part);
        } else if (naive.lines() < num_lines) {
            LineId from = randomPresent();
            LineId to;
            do {
                to = rng.below(num_lines);
            } while (naive.contains(to));
            rank.onRelocate(from, to);
            naive.relocate(from, to);
        }

        ASSERT_EQ(rank.auditInvariants(), "") << "op " << op;
        for (PartId p = 0; p < kParts; ++p) {
            ASSERT_EQ(rank.partLines(p), naive.partLines(p))
                << "op " << op << " part " << int{p};
            ASSERT_EQ(rank.worstIn(p), naive.worstIn(p))
                << "op " << op << " part " << int{p};
        }
        for (std::size_t i = 0; i < naive.lines(); ++i) {
            LineId id = naive.lineAt(i);
            ASSERT_EQ(rank.partOf(id), naive.partOf(id))
                << "op " << op << " line " << id;
            // Bit-exact, not approximate: both sides divide the
            // identical integers, and byte-identity of the replay
            // rests on exactly that.
            ASSERT_EQ(rank.exactFutility(id),
                      naive.exactFutility(id))
                << "op " << op << " line " << id;
        }
    }
}

/** ExactLruRanking is the thinnest client: its futilities ARE the
 *  base's ranks. */
TEST(RecencyBase, MatchesNaiveReferenceThroughRenumbering)
{
    ExactLruRanking rank(24);
    checkAgainstNaive(rank, 24);
}

/** Random keeps its exact order on the same base; relocate and retag
 *  must carry a line's recency exactly as the naive list does. */
TEST(RecencyBase, RandomMatchesNaiveReferenceThroughRenumbering)
{
    RandomRanking rank(24, Rng(5));
    checkAgainstNaive(rank, 24);
}

TEST(RecencyBase, SingleLineSurvivesEndlessTouches)
{
    // One resident line, thousands of touches: the smallest stamp
    // axis (16) renumbers hundreds of times and the answers never
    // move.
    ExactLruRanking rank(1);
    rank.onInstall(0, 0, kNeverUsed);
    for (int i = 0; i < 5000; ++i) {
        rank.onHit(0, kNeverUsed);
        ASSERT_EQ(rank.worstIn(0), 0u);
        ASSERT_DOUBLE_EQ(rank.exactFutility(0), 1.0);
    }
    EXPECT_EQ(rank.auditInvariants(), "");
}

TEST(RecencyBase, CorruptionHookIsDetectedByAudits)
{
    ExactLruRanking rank(8);
    EXPECT_FALSE(rank.corruptRankNodeForFaultInjection())
        << "nothing to corrupt in an empty ranking";
    for (LineId i = 0; i < 4; ++i)
        rank.onInstall(i, 0, kNeverUsed);
    ASSERT_EQ(rank.auditInvariants(), "");

    std::uint32_t before = rank.partLines(0);
    ASSERT_TRUE(rank.corruptRankNodeForFaultInjection());
    // Silent: the inflated counter changes what partLines reports
    // (the occupancy-sum audit's input) ...
    EXPECT_EQ(rank.partLines(0), before + 1);
    // ... navigation stays safe ...
    EXPECT_EQ(rank.worstIn(0), 0u);
    // ... and the deep self-audit pins the damage.
    EXPECT_NE(rank.auditInvariants(), "");
}

} // namespace
} // namespace fscache
