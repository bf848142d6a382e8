/**
 * @file
 * Two-level recency mark index (common/fenwick.hh), its word
 * helpers (common/bits.hh) and the recency ranking base built on it
 * (ranking/recency_ranking_base.hh): the primitives against naive
 * references at single- and multi-word capacities, the bulk paths
 * against sequential marks, the full rankings (exact LRU and
 * Random) against a naive recency-list reference through randomized
 * op sequences long enough to force many stamp-axis renumberings,
 * and the corruption fault hook's detectability contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "common/fenwick.hh"
#include "common/random.hh"
#include "ranking/exact_lru_ranking.hh"
#include "ranking/random_ranking.hh"

namespace fscache
{
namespace
{

TEST(Bits, PopcountAndSelectMatchNaive)
{
    Rng rng(17);
    std::vector<std::uint64_t> words = {0, ~0ull, 1, 1ull << 63,
                                        0x8000000000000001ull,
                                        0x00ff00000000ff00ull};
    for (int i = 0; i < 2000; ++i) {
        // Sparse, dense and byte-clustered words.
        std::uint64_t a = rng();
        std::uint64_t b = rng();
        words.push_back(a & b & rng());
        words.push_back(a | b);
        words.push_back(a & (0xffull << (8 * rng.below(8))));
    }
    for (std::uint64_t w : words) {
        std::vector<unsigned> set;
        for (unsigned bit = 0; bit < 64; ++bit) {
            if ((w >> bit) & 1)
                set.push_back(bit);
        }
        ASSERT_EQ(popcount64(w), set.size()) << std::hex << w;
        for (unsigned k = 0; k < set.size(); ++k)
            ASSERT_EQ(selectBit(w, k), set[k]) << std::hex << w << " " << k;
    }
}

/**
 * Drive the two-level index and a naive mark array through random
 * marks and unmarks at one capacity, checking every query after
 * every op. Marks land in a few words only — the first two, the
 * middle one and the last — so the words between stay empty, and a
 * third of them sit on the word boundaries 63, 64 and 127. Every
 * 16th op also checks both bulk paths (clear/setBulk/recount and
 * fillBelow) against the same marks made one by one.
 */
void
checkFenwickAgainstNaive(std::uint32_t cap)
{
    FenwickTree fen(cap);
    FenwickTree bulk(cap);
    std::vector<std::uint8_t> naive(cap, 0);
    std::uint32_t words = std::max<std::uint32_t>(1, cap / 64);
    const std::uint32_t hotWords[] = {0, 1, words / 2, words - 1};
    std::vector<std::uint32_t> edges;
    for (std::uint32_t p : {0u, 1u, 62u, 63u, 64u, 65u, 127u, 128u,
                            cap - 64, cap - 1}) {
        if (p < cap)
            edges.push_back(p);
    }
    Rng rng(31 + cap);
    for (int round = 0; round < 3000; ++round) {
        std::uint32_t pos;
        if (rng.below(3) == 0) {
            pos = edges[rng.below(edges.size())];
        } else {
            std::uint32_t w = hotWords[rng.below(4)];
            pos = std::min(cap - 1, 64 * w + static_cast<std::uint32_t>(
                                                 rng.below(64)));
        }
        if (naive[pos]) {
            fen.unmark(pos);
            naive[pos] = 0;
        } else {
            fen.mark(pos);
            naive[pos] = 1;
        }

        std::vector<std::uint32_t> marked;
        for (std::uint32_t p = 0; p < cap; ++p) {
            if (naive[p])
                marked.push_back(p);
        }
        ASSERT_EQ(fen.total(), marked.size());
        // Every prefix, capacity() included: the running naive count
        // against countBelow at each position.
        std::uint32_t below = 0;
        for (std::uint32_t p = 0; p <= cap; ++p) {
            ASSERT_EQ(fen.countBelow(p), below) << "cap " << cap
                                                << " pos " << p;
            if (p < cap)
                below += naive[p];
        }
        for (std::uint32_t k = 0; k < marked.size(); ++k)
            ASSERT_EQ(fen.selectKth(k), marked[k]) << "cap " << cap
                                                   << " k " << k;
        if (!marked.empty()) {
            ASSERT_EQ(fen.lowest(), marked.front()) << "cap " << cap;
        }

        if (round % 16 != 0)
            continue;
        // The bulk paths over a random prefix must equal marking the
        // same positions one by one: every word, prefix count and
        // select agrees.
        std::uint32_t n = rng.below(4) == 0
                              ? cap
                              : static_cast<std::uint32_t>(
                                    rng.below(cap + 1));
        FenwickTree seq(cap);
        FenwickTree ones(cap);
        bulk.clear();
        for (std::uint32_t p = 0; p < n; ++p) {
            ones.mark(p);
            if (naive[p]) {
                seq.mark(p);
                bulk.setBulk(p);
            }
        }
        bulk.recount();
        FenwickTree filled(cap);
        filled.mark(cap - 1); // stale contents the fill must drop
        filled.fillBelow(n);
        for (const auto &[got, want] :
             {std::pair{&bulk, &seq}, std::pair{&filled, &ones}}) {
            ASSERT_EQ(got->total(), want->total()) << "cap " << cap;
            for (std::uint32_t w = 0; w < want->words(); ++w)
                ASSERT_EQ(got->word(w), want->word(w)) << w;
            for (std::uint32_t p = 0; p <= cap; ++p)
                ASSERT_EQ(got->countBelow(p), want->countBelow(p)) << p;
            for (std::uint32_t k = 0; k < want->total(); ++k)
                ASSERT_EQ(got->selectKth(k), want->selectKth(k)) << k;
        }
    }
}

/** 16 is a partial word, 64 exactly one word (no word tree to
 *  descend), 128 the smallest tree, 4096 a 64-word tree. */
TEST(Fenwick, MatchesNaiveMarkArray)
{
    for (std::uint32_t cap : {16u, 64u, 128u, 4096u})
        checkFenwickAgainstNaive(cap);
}

TEST(Fenwick, EmptyBulkKeepsCapacity)
{
    FenwickTree fen(16);
    fen.mark(3);
    fen.mark(9);
    fen.fillBelow(0);
    EXPECT_EQ(fen.total(), 0u);
    EXPECT_EQ(fen.capacity(), 16u);
    EXPECT_EQ(fen.countBelow(16), 0u);
    fen.mark(15);
    EXPECT_EQ(fen.selectKth(0), 15u);
    fen.clear();
    fen.recount();
    EXPECT_EQ(fen.total(), 0u);
    EXPECT_EQ(fen.countBelow(16), 0u);
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

    /** Every query's answer, from two passes over the list. */
    struct Answers
    {
        std::vector<std::uint32_t> partLines; ///< by partition
        std::vector<LineId> worst;            ///< by partition
        std::vector<double> futility;         ///< by list index
    };

    Answers
    answers(PartId parts) const
    {
        Answers out{std::vector<std::uint32_t>(parts, 0),
                    std::vector<LineId>(parts, kInvalidLine), {}};
        for (LineId id : order_) {
            PartId part = part_.at(id);
            if (out.partLines[part]++ == 0)
                out.worst[part] = id;
        }
        std::vector<std::uint32_t> older(parts, 0);
        for (LineId id : order_) {
            PartId part = part_.at(id);
            std::uint32_t size = out.partLines[part];
            out.futility.push_back(
                static_cast<double>(size - older[part]++) /
                static_cast<double>(size));
        }
        return out;
    }

  private:
    std::vector<LineId> order_;
    std::map<LineId, PartId> part_;
};

/**
 * Drive a RecencyRankingBase client and the naive reference through
 * the same randomized install/hit/evict/retag/relocate sequence over
 * `parts` partitions, comparing every query after every op. The ops
 * churn through the stamp axis (twice the line count, rounded up to
 * a power of two) many times over, so the renumbering path runs
 * under every op mix.
 */
void
checkAgainstNaive(RecencyRankingBase &rank, LineId num_lines,
                  PartId parts, int ops)
{
    NaiveRecency naive;
    Rng rng(4242);

    auto randomPresent = [&]() -> LineId {
        std::size_t i = rng.below(naive.lines());
        return naive.lineAt(i);
    };

    for (int op = 0; op < ops; ++op) {
        std::uint32_t kind = rng.below(10);
        if (naive.lines() == 0 ||
            (kind < 3 && naive.lines() < num_lines)) {
            LineId id;
            do {
                id = rng.below(num_lines);
            } while (naive.contains(id));
            auto part = static_cast<PartId>(rng.below(parts));
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
            auto part = static_cast<PartId>(rng.below(parts));
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
        NaiveRecency::Answers want = naive.answers(parts);
        for (PartId p = 0; p < parts; ++p) {
            ASSERT_EQ(rank.partLines(p), want.partLines[p])
                << "op " << op << " part " << int{p};
            ASSERT_EQ(rank.worstIn(p), want.worst[p])
                << "op " << op << " part " << int{p};
        }
        for (std::size_t i = 0; i < naive.lines(); ++i) {
            LineId id = naive.lineAt(i);
            ASSERT_EQ(rank.partOf(id), naive.partOf(id))
                << "op " << op << " line " << id;
            // Bit-exact, not approximate: both sides divide the
            // identical integers, and byte-identity of the replay
            // rests on exactly that.
            ASSERT_EQ(rank.exactFutility(id), want.futility[i])
                << "op " << op << " line " << id;
        }
    }
}

/** ExactLruRanking is the thinnest client: its futilities ARE the
 *  base's ranks. */
TEST(RecencyBase, MatchesNaiveReferenceThroughRenumbering)
{
    ExactLruRanking rank(24);
    checkAgainstNaive(rank, 24, 3, 6000);
}

/** Random keeps its exact order on the same base; relocate and retag
 *  must carry a line's recency exactly as the naive list does. */
TEST(RecencyBase, RandomMatchesNaiveReferenceThroughRenumbering)
{
    RandomRanking rank(24, Rng(5));
    checkAgainstNaive(rank, 24, 3, 6000);
}

/** 300 lines on a 1024-stamp axis: sixteen mark words per partition
 *  under a word tree, and 32 partitions for the one-pass renumber to
 *  scatter each compacted line's bit into. */
TEST(RecencyBase, ManyPartitionsMultiWordAxisMatchNaive)
{
    ExactLruRanking lru(300);
    checkAgainstNaive(lru, 300, 32, 15000);
    RandomRanking random(300, Rng(6));
    checkAgainstNaive(random, 300, 32, 15000);
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
