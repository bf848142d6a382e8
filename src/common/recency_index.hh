/**
 * @file
 * Recency index: the append-only stamp axis behind every pure-recency
 * order in the simulator (exact LRU, the coarse-timestamp LRU's exact
 * shadow, Random's exact order, and the stack-distance trace
 * generator's LRU stack).
 *
 * Each touch appends its payload (a line id, a local address) at the
 * next stamp and vacates the old one, so stamp order IS recency
 * order. Callers keep one or more FenwickTrees (common/fenwick.hh)
 * of marks over the same stamps; a rank is then a prefix count and
 * the d-th most recent entry a selectKth(). When the axis fills,
 * compact() slides the live payloads down to stamps 0..live-1 in
 * order — relative recency, the only thing a rank reads, is kept
 * exactly — and the caller rebuilds its marks with one bulk build.
 *
 * The axis doubles at compaction only when more than half of it is
 * live, so every compaction is followed by at least capacity/2 fresh
 * stamps and its O(capacity) cost amortizes to O(1) per append.
 */

#ifndef FSCACHE_COMMON_RECENCY_INDEX_HH
#define FSCACHE_COMMON_RECENCY_INDEX_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/log.hh"

namespace fscache
{

/**
 * See file comment.
 *
 * @tparam T payload type (trivially copyable)
 * @tparam kEmpty payload value that marks a vacant stamp; callers
 *         never append it
 */
template <typename T, T kEmpty>
class RecencyIndex
{
  public:
    /** Axis sized for `live` entries: the smallest power of two
     *  >= 2 * live, and at least 16. */
    explicit RecencyIndex(std::uint64_t live)
    {
        fs_assert(live < (1u << 30), "recency index too large");
        at_.assign(std::max<std::uint64_t>(16, ceilPow2(2ull * live)),
                   kEmpty);
    }

    std::uint32_t
    capacity() const
    {
        return static_cast<std::uint32_t>(at_.size());
    }

    /** One past the newest stamp handed out; every stamp at or past
     *  it is vacant. */
    std::uint32_t end() const { return next_; }

    /** True when the next append() needs a compact() first. */
    bool full() const { return next_ == capacity(); }

    /** Payload at `stamp`, or kEmpty. */
    T at(std::uint32_t stamp) const { return at_[stamp]; }

    /** Put `value` at the next stamp and return that stamp. */
    std::uint32_t
    append(T value)
    {
        fs_assert(!full(), "append to a full recency index");
        at_[next_] = value;
        return next_++;
    }

    /** Replace the payload at a live stamp (the entry keeps its
     *  recency). */
    void set(std::uint32_t stamp, T value) { at_[stamp] = value; }

    void vacate(std::uint32_t stamp) { at_[stamp] = kEmpty; }

    /**
     * Move the live payloads to stamps 0..live-1 in stamp order,
     * then double the axis if more than half of it is live. Stamps
     * the caller holds are stale afterwards: it re-reads them from
     * at(0..end()).
     */
    void
    compact()
    {
        std::uint32_t live = 0;
        for (std::uint32_t pos = 0; pos < next_; ++pos) {
            if (at_[pos] != kEmpty)
                at_[live++] = at_[pos];
        }
        std::fill(at_.begin() + live, at_.begin() + next_, kEmpty);
        next_ = live;
        if (live > capacity() / 2) {
            fs_assert(capacity() < (1u << 31),
                      "recency index too large");
            // fs-analyze: allow(hot-path-alloc) doubling runs only
            // when the live count passes half the axis, so it stops
            // once the axis holds twice the high-water mark; the
            // ranking axes are sized to twice their line count and
            // never grow (witness: tests/test_hot_alloc.cc).
            at_.resize(2 * at_.size(), kEmpty);
        }
    }

  private:
    std::vector<T> at_;
    std::uint32_t next_ = 0;
};

} // namespace fscache

#endif // FSCACHE_COMMON_RECENCY_INDEX_HH
