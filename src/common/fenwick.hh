/**
 * @file
 * Two-level occupancy index over a fixed power-of-two range of
 * positions: each position is either marked or empty, and the index
 * answers "how many marks below position p" and "where is the k-th
 * mark".
 *
 * This is the order structure over a RecencyIndex's stamp axis
 * (common/recency_index.hh): positions are recency stamps, marks
 * are resident entries, prefix counts are exact LRU ranks.
 *
 * Layout: the leaves are one 64-bit mark word per 64 positions, and
 * the upper level is a binary-indexed (Fenwick) tree over the
 * per-word mark counts, 64x shorter than a tree with one counter per
 * position. Together they take about 0.19 bytes per position (one
 * bit, plus one 32-bit count per 64 positions). A prefix
 * count is a Fenwick prefix over the words below plus one popcount
 * of the masked word; a select descends the word tree, then selects
 * inside one word; mark and unmark flip one bit and walk the short
 * tree. Bulk rewrites store whole words and rebuild the tree in one
 * linear pass. Orders whose keys move both ways use the blocked
 * index in common/order_stat_index.hh instead.
 */

#ifndef FSCACHE_COMMON_FENWICK_HH
#define FSCACHE_COMMON_FENWICK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/log.hh"

namespace fscache
{

/** See file comment. */
class FenwickTree
{
  public:
    FenwickTree() = default;

    explicit FenwickTree(std::uint32_t capacity) { reset(capacity); }

    /** (Re)size to `capacity` positions, all empty. */
    void
    reset(std::uint32_t capacity)
    {
        fs_assert(capacity > 0 &&
                      (capacity & (capacity - 1)) == 0,
                  "fenwick capacity must be a power of two");
        cap_ = capacity;
        nwords_ = std::max<std::uint32_t>(1, capacity >> 6);
        total_ = 0;
        // fs-analyze: allow(hot-path-alloc) reset runs once per
        // index — construction, first sight of a partition id in
        // RecencyRankingBase::ensurePart (bounded by the partition
        // count), or a doubling of StackDistGenerator's stamp axis
        // (witness: tests/test_hot_alloc.cc). One zero word past
        // the end lets countBelow(capacity) read it unconditionally.
        words_.assign(nwords_ + 1, 0);
        // fs-analyze: allow(hot-path-alloc) see above.
        tree_.assign(nwords_ + 1, 0);
    }

    /** Mark the (currently empty) position `pos`. */
    void
    mark(std::uint32_t pos)
    {
        fs_assert(pos < cap_, "fenwick position out of range");
        words_[pos >> 6] |= bitOf(pos);
        for (std::uint32_t i = (pos >> 6) + 1; i <= nwords_;
             i += i & (0u - i))
            ++tree_[i];
        ++total_;
    }

    /** Empty the (currently marked) position `pos`. */
    void
    unmark(std::uint32_t pos)
    {
        fs_assert(pos < cap_, "fenwick position out of range");
        words_[pos >> 6] &= ~bitOf(pos);
        for (std::uint32_t i = (pos >> 6) + 1; i <= nwords_;
             i += i & (0u - i))
            --tree_[i];
        --total_;
    }

    /** Number of marked positions strictly below `pos`
     *  (pos == capacity() gives the full count). */
    std::uint32_t
    countBelow(std::uint32_t pos) const
    {
        fs_assert(pos <= cap_, "fenwick prefix out of range");
        std::uint32_t sum = 0;
        for (std::uint32_t i = pos >> 6; i > 0; i &= i - 1)
            sum += tree_[i];
        return sum + popcount64(words_[pos >> 6] & (bitOf(pos) - 1));
    }

    std::uint32_t total() const { return total_; }

    std::uint32_t capacity() const { return cap_; }

    /**
     * Position of the k-th lowest mark (0-based; k = 0 is the lowest
     * marked position): the standard select descent over the word
     * tree — from the top bit down, step right past every left
     * subtree that holds too few marks — lands on the word holding
     * it, then one in-word select. Requires k < total().
     */
    std::uint32_t
    selectKth(std::uint32_t k) const
    {
        fs_assert(k < total_, "fenwick select out of range");
        std::uint32_t word = 0;
        for (std::uint32_t bit = nwords_ >> 1; bit > 0; bit >>= 1) {
            std::uint32_t next = word + bit;
            if (tree_[next] <= k) {
                k -= tree_[next];
                word = next;
            }
        }
        return (word << 6) + selectBit(words_[word], k);
    }

    /** Lowest marked position: the first non-empty word, found by
     *  the same descent, and its lowest set bit. Requires
     *  total() > 0. */
    std::uint32_t
    lowest() const
    {
        fs_assert(total_ > 0, "lowest mark of an empty fenwick");
        std::uint32_t word = 0;
        for (std::uint32_t bit = nwords_ >> 1; bit > 0; bit >>= 1) {
            if (tree_[word + bit] == 0)
                word += bit;
        }
        return (word << 6) +
               static_cast<std::uint32_t>(
                   std::countr_zero(words_[word]));
    }

    /** Number of mark words (capacity / 64, at least one). */
    std::uint32_t words() const { return nwords_; }

    /** Mark word `w`: bit b is position 64 * w + b. */
    std::uint64_t word(std::uint32_t w) const { return words_[w]; }

    /** Replace the contents with exactly the positions below `n`
     *  marked: whole-word stores, then one linear recount. */
    void
    fillBelow(std::uint32_t n)
    {
        fs_assert(n <= cap_, "fenwick fill out of range");
        std::fill(words_.begin(), words_.begin() + (n >> 6), ~0ull);
        std::fill(words_.begin() + (n >> 6), words_.end(), 0);
        words_[n >> 6] = bitOf(n) - 1;
        recount();
    }

    /**
     * Bulk rewrite, for a caller that rebuilds several indexes from
     * one pass over its own data: clear() empties every position,
     * setBulk() marks one without touching the counts, and
     * recount() rebuilds the counts from the words. Between clear()
     * and recount() only setBulk() may be called.
     */
    void
    clear()
    {
        std::fill(words_.begin(), words_.end(), 0);
    }

    /** See clear(). */
    void
    setBulk(std::uint32_t pos)
    {
        fs_assert(pos < cap_, "fenwick position out of range");
        words_[pos >> 6] |= bitOf(pos);
    }

    /** See clear(): the word tree and the total, in O(words). */
    void
    recount()
    {
        // Node i (1-based) first takes word i - 1's own count, then
        // passes its finished range sum up to its parent
        // i + lowbit(i); ascending, so every child is finished first.
        std::uint32_t sum = 0;
        for (std::uint32_t i = 1; i <= nwords_; ++i) {
            std::uint32_t own = popcount64(words_[i - 1]);
            sum += own;
            tree_[i] = own;
        }
        for (std::uint32_t i = 1; i <= nwords_; ++i) {
            std::uint32_t parent = i + (i & (0u - i));
            if (parent <= nwords_)
                tree_[parent] += tree_[i];
        }
        total_ = sum;
    }

  private:
    static std::uint64_t
    bitOf(std::uint32_t pos)
    {
        return std::uint64_t{1} << (pos & 63);
    }

    std::uint32_t cap_ = 0;
    std::uint32_t nwords_ = 0;
    std::uint32_t total_ = 0;
    /** Mark bits, 64 positions a word, plus one always-zero word. */
    std::vector<std::uint64_t> words_;
    /** 1-based implicit tree over the words; tree_[i] counts the
     *  marks in words (i - lowbit(i), i] (1-based). */
    std::vector<std::uint32_t> tree_;
};

} // namespace fscache

#endif // FSCACHE_COMMON_FENWICK_HH
