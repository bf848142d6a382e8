/**
 * @file
 * Binary-indexed (Fenwick) occupancy tree over a fixed power-of-two
 * range of positions: each position is either marked or empty, and
 * the tree answers "how many marks below position p" and "where is
 * the k-th mark" in O(log capacity) array arithmetic.
 *
 * This is the order structure over a RecencyIndex's stamp axis
 * (common/recency_index.hh): positions are recency stamps, marks
 * are resident entries, prefix counts are exact LRU ranks. A
 * Fenwick walk touches log2(C) contiguous array words and needs no
 * rebalancing state; orders whose keys move both ways use the
 * blocked index in common/order_stat_index.hh instead.
 */

#ifndef FSCACHE_COMMON_FENWICK_HH
#define FSCACHE_COMMON_FENWICK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

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
        total_ = 0;
        // fs-analyze: allow(hot-path-alloc) reset runs once per
        // tree — construction, first sight of a partition id in
        // RecencyRankingBase::ensurePart (bounded by the partition
        // count), or a doubling of StackDistGenerator's stamp axis
        // (witness: tests/test_hot_alloc.cc).
        tree_.assign(cap_ + 1, 0);
    }

    /** Mark the (currently empty) position `pos`. */
    void
    mark(std::uint32_t pos)
    {
        update(pos, +1);
        ++total_;
    }

    /** Empty the (currently marked) position `pos`. */
    void
    unmark(std::uint32_t pos)
    {
        update(pos, -1);
        --total_;
    }

    /** Number of marked positions strictly below `pos`
     *  (pos == capacity() gives the full count). */
    std::uint32_t
    countBelow(std::uint32_t pos) const
    {
        fs_assert(pos <= cap_, "fenwick prefix out of range");
        std::uint32_t sum = 0;
        for (std::uint32_t i = pos; i > 0; i &= i - 1)
            sum += tree_[i];
        return sum;
    }

    std::uint32_t total() const { return total_; }

    std::uint32_t capacity() const { return cap_; }

    /**
     * Position of the k-th lowest mark (0-based; k = 0 is the lowest
     * marked position), by the standard select descent: walk the
     * implicit tree from the top bit down, stepping right past every
     * left subtree that holds too few marks. Requires k < total().
     */
    std::uint32_t
    selectKth(std::uint32_t k) const
    {
        fs_assert(k < total_, "fenwick select out of range");
        std::uint32_t pos = 0;
        std::uint32_t need = k + 1;
        for (std::uint32_t bit = cap_ >> 1; bit > 0; bit >>= 1) {
            std::uint32_t next = pos + bit;
            if (tree_[next] < need) {
                need -= tree_[next];
                pos = next;
            }
        }
        return pos;
    }

    /**
     * Replace the contents in O(capacity): position p < n is marked
     * iff marked(p), every position >= n is empty. Equivalent to
     * emptying every position and then calling mark() at each such p
     * in turn, without the O(log capacity) walk per mark.
     */
    template <typename Marked>
    void
    build(std::uint32_t n, Marked marked)
    {
        fs_assert(n <= cap_, "fenwick build out of range");
        // First node i holds the prefix count of positions below i
        // (1-based: up to and including i) ...
        std::uint32_t run = 0;
        for (std::uint32_t pos = 0; pos < n; ++pos) {
            run += marked(pos) ? 1 : 0;
            tree_[pos + 1] = run;
        }
        std::fill(tree_.begin() + n + 1, tree_.end(), run);
        total_ = run;
        // ... then the difference of two prefixes, the count over
        // its range (i - lowbit(i), i]. Descending, so the lower
        // prefix it subtracts is still intact; tree_[0] stays 0.
        for (std::uint32_t i = cap_; i > 0; --i)
            tree_[i] -= tree_[i - (i & (0u - i))];
    }

  private:
    void
    update(std::uint32_t pos, std::int32_t delta)
    {
        fs_assert(pos < cap_, "fenwick position out of range");
        for (std::uint32_t i = pos + 1; i <= cap_; i += i & (0u - i))
            tree_[i] = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(tree_[i]) + delta);
    }

    std::uint32_t cap_ = 0;
    std::uint32_t total_ = 0;
    /** 1-based implicit tree; tree_[i] counts marks in the range
     *  (i - lowbit(i), i] of 1-based positions. */
    std::vector<std::uint32_t> tree_;
};

} // namespace fscache

#endif // FSCACHE_COMMON_FENWICK_HH
