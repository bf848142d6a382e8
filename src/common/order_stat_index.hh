/**
 * @file
 * Blocked order-statistic index with one position handle per line.
 *
 * The futility of a cache line is its rank inside its partition,
 * normalized to (0, 1] (Section III.A of the paper): for the line
 * ranked r-th most useless out of M, f = r / M. Computing exact
 * ranks online requires an order-statistic structure per partition;
 * this index provides insert / erase / reKey / rank queries with no
 * allocation once its pools reach their high-water mark.
 *
 * Keys encode "usefulness": *larger key = more useful* (e.g. a higher
 * access count under LFU, a nearer next use under OPT). The futility
 * rank of a present line is then size() - rankOf(line), and the
 * least useful line is minKey(). Every key carries the line it
 * belongs to (Key::line), which also breaks ties, so keys are
 * unique. Keys here move both ways; orders that are pure recency
 * (every update makes the line the newest) use the cheaper stamp
 * axis in common/recency_index.hh instead.
 *
 * Layout (see docs/PERF.md §2): two levels, both flat arrays.
 *  - Leaf blocks hold up to kBlockKeys sorted keys each. They live
 *    in one pooled vector with a free list.
 *  - The directory has one entry per block, in key order: the
 *    block's first key, the number of keys in all earlier blocks,
 *    and the block id. dirPos_ maps a block id back to its entry.
 *  - A LineHandles table, owned by the caller and shared by every
 *    index a line can live in, holds each present line's position:
 *    its block id and slot in one 32-bit word.
 *
 * rankOf(line) is before_[dirPos_[block]] + slot: two dependent
 * loads and no comparisons. erase() and reKey() find the old key
 * through its handle; the only key search left is the new key's
 * position in insert() and reKey() (a binary search of the
 * directory's first keys, then one inside a leaf). Every operation
 * that moves keys refreshes the moved keys' handles: the leaf shift
 * of insert, erase and an in-leaf reKey touches at most one block's
 * keys. A full block splits in half; a block under a quarter full
 * merges with a neighbour, or takes keys from it when the merged
 * block would be more than three quarters full. Only the sole
 * remaining block may be short, and it is released when its last
 * key goes. Directory inserts and erases (split, merge) refresh
 * dirPos_ from the changed entry on, as the cumulative counts are.
 */

#ifndef FSCACHE_COMMON_ORDER_STAT_INDEX_HH
#define FSCACHE_COMMON_ORDER_STAT_INDEX_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace fscache
{

template <typename Key> class OrderStatIndex;

/**
 * The keyed rankings' key: ordered by primary, ties broken by line
 * id (which also makes keys unique when primaries collide, e.g.
 * OPT's never-used lines).
 */
struct LineKey
{
    std::uint64_t primary = 0;
    LineId line = kInvalidLine;

    bool
    operator<(const LineKey &o) const
    {
        if (primary != o.primary)
            return primary < o.primary;
        return line < o.line;
    }

    bool
    operator==(const LineKey &o) const
    {
        return primary == o.primary && line == o.line;
    }
};

/**
 * One position handle per line, for every OrderStatIndex that can
 * hold the line. A line is stored in at most one of them at a time,
 * so the indexes of all partitions share one table. Only the
 * indexes write it.
 */
class LineHandles
{
  public:
    explicit LineHandles(LineId num_lines) : h_(num_lines, kNone) {}

    LineHandles(const LineHandles &) = delete;
    LineHandles &operator=(const LineHandles &) = delete;

    /** True iff the line is stored in one of the sharing indexes. */
    bool holds(LineId line) const { return h_[line] != kNone; }

  private:
    template <typename> friend class OrderStatIndex;
    static constexpr std::uint32_t kNone = 0xffffffffu;

    std::vector<std::uint32_t> h_;
};

/**
 * Sorted leaf blocks under a key-ordered directory, with a position
 * handle per stored line.
 *
 * @tparam Key totally ordered key type (operator< / operator==) with
 *             a LineId member `line`, unique among stored keys.
 */
template <typename Key>
class OrderStatIndex
{
  public:
    /** Keys per leaf block. */
    static constexpr std::uint32_t kBlockKeys = 64;
    /** Fewest keys a block holds while it is not the only one. */
    static constexpr std::uint32_t kMinFill = kBlockKeys / 4;

    /** An index whose lines' handles live in `handles`, which must
     *  outlive it and cover every line id it will hold. */
    explicit OrderStatIndex(LineHandles &handles) : handles_(&handles)
    {
    }

    /** Number of keys currently stored. */
    std::uint32_t size() const { return size_; }

    bool empty() const { return first_.empty(); }

    /** Insert the key of a line that no sharing index holds. */
    void
    insert(const Key &key)
    {
        fs_assert(key.line < handles_->h_.size() &&
                      handles_->h_[key.line] == LineHandles::kNone,
                  "insert of a line already held");
        if (size_ / kMinFill + 2 > blocks_.capacity())
            growPools();
        if (first_.empty()) {
            std::uint32_t id = allocBlock();
            // fs-analyze: allow(hot-path-alloc) never grows: the
            // directory's capacity is the pool's (growPools()).
            first_.push_back(key);
            // fs-analyze: allow(hot-path-alloc) see first_ above.
            before_.push_back(0);
            // fs-analyze: allow(hot-path-alloc) see first_ above.
            blockOf_.push_back(id);
            dirPos_[id] = 0;
        }
        std::uint32_t d = slotFor(key);
        if (blocks_[blockOf_[d]].n == kBlockKeys) {
            split(d);
            if (!(key < first_[d + 1]))
                ++d;
        }
        std::uint32_t id = blockOf_[d];
        Block &b = blocks_[id];
        std::uint32_t i = lowerBound(b.keys, b.n, key);
        std::copy_backward(b.keys + i, b.keys + b.n, b.keys + b.n + 1);
        b.keys[i] = key;
        ++b.n;
        rehome(id, i, b.n);
        first_[d] = b.keys[0];
        addAfter(d, 1);
        ++size_;
    }

    /**
     * Erase a key that must be present.
     * Panics if the key is absent, since an absent key means the
     * caller's line bookkeeping is corrupt.
     */
    void
    erase(const Key &key)
    {
        std::uint32_t d = 0, i = 0;
        bool found = locate(key, d, i);
        fs_assert(found, "erase of absent key");
        LineId line = key.line; // key may be a stored key, moved below
        removeAt(d, i);
        handles_->h_[line] = LineHandles::kNone;
    }

    /**
     * Move a present key to a new (absent) key of the same line.
     * When the new key stays between the neighbouring blocks' first
     * keys, the keys between the two positions in the leaf shift by
     * one and nothing else changes; otherwise this is an erase and
     * an insert. This is the hit path of every keyed ranking.
     */
    void
    reKey(const Key &old_key, const Key &new_key)
    {
        std::uint32_t d = 0, i = 0;
        bool found = locate(old_key, d, i);
        fs_assert(found, "reKey of absent key");
        fs_assert(new_key.line == old_key.line,
                  "reKey to another line's key");
        bool stays = (d == 0 || !(new_key < first_[d])) &&
                     (d + 1 == first_.size() ||
                      new_key < first_[d + 1]);
        if (!stays) {
            removeAt(d, i);
            handles_->h_[new_key.line] = LineHandles::kNone;
            insert(new_key);
            return;
        }
        std::uint32_t id = blockOf_[d];
        Block &b = blocks_[id];
        std::uint32_t j = lowerBound(b.keys, b.n, new_key);
        if (j > i) {
            std::copy(b.keys + i + 1, b.keys + j, b.keys + i);
            b.keys[j - 1] = new_key;
            rehome(id, i, j);
        } else {
            std::copy_backward(b.keys + j, b.keys + i, b.keys + i + 1);
            b.keys[j] = new_key;
            rehome(id, j, i + 1);
        }
        first_[d] = b.keys[0];
    }

    /** True iff the key is present. */
    bool
    contains(const Key &key) const
    {
        std::uint32_t d = 0, i = 0;
        return locate(key, d, i);
    }

    /** True iff this index holds the line (under any key). */
    bool
    holds(LineId line) const
    {
        std::uint32_t d = 0, i = 0;
        return locateLine(line, d, i);
    }

    /** The key of a line this index holds. */
    Key
    keyOf(LineId line) const
    {
        std::uint32_t d = 0, i = 0;
        bool found = locateLine(line, d, i);
        fs_assert(found, "key of an absent line");
        return blocks_[blockOf_[d]].keys[i];
    }

    /**
     * Number of stored keys less than the key of a line this index
     * holds: before_[dirPos_[block]] + slot, read off the line's
     * handle with no search. The futility rank (paper's r in
     * f = r / M) is size() - rankOf(line). The caller guarantees
     * the line is held here; the ranking hot path checks that
     * once per query, not here.
     */
    std::uint32_t
    rankOf(LineId line) const
    {
        std::uint32_t h = handles_->h_[line];
        return before_[dirPos_[h >> kSlotBits]] + (h & kSlotMask);
    }

    /** Number of stored keys strictly less than key (any key). */
    std::uint32_t
    countLess(const Key &key) const
    {
        if (empty())
            return 0;
        std::uint32_t d = slotFor(key);
        const Block &b = blocks_[blockOf_[d]];
        return before_[d] + lowerBound(b.keys, b.n, key);
    }

    /** Smallest key (the least useful line). Must be non-empty. */
    Key
    minKey() const
    {
        fs_assert(!empty(), "minKey on empty index");
        return first_[0];
    }

    /** Largest key (the most useful line). Must be non-empty. */
    Key
    maxKey() const
    {
        fs_assert(!empty(), "maxKey on empty index");
        const Block &b = blocks_[blockOf_.back()];
        return b.keys[b.n - 1];
    }

    /** k-th smallest key, 0-based. k must be < size(). */
    Key
    kth(std::uint32_t k) const
    {
        fs_assert(k < size(), "kth out of range");
        auto d = static_cast<std::uint32_t>(
            std::upper_bound(before_.begin(), before_.end(), k) -
            before_.begin() - 1);
        return blocks_[blockOf_[d]].keys[k - before_[d]];
    }

    /**
     * Remove everything, releasing the stored lines' handles. The
     * block pool is retained: every block goes back on the free list
     * and the arrays keep their size, so a clear + refill cycle
     * performs no allocation (and no pool shrink — see poolSize()).
     * FS_COLD: only called when a cache is (re)built, never per
     * access.
     */
    FS_COLD void
    clear()
    {
        for (std::uint32_t id : blockOf_) {
            const Block &b = blocks_[id];
            for (std::uint32_t i = 0; i < b.n; ++i)
                handles_->h_[b.keys[i].line] = LineHandles::kNone;
        }
        auto pool = static_cast<std::uint32_t>(blocks_.size());
        freeList_.resize(pool);
        // Pop order is back-first; hand out block 0 first, matching
        // a freshly built index.
        for (std::uint32_t i = 0; i < pool; ++i)
            freeList_[i] = pool - 1 - i;
        first_.clear();
        before_.clear();
        blockOf_.clear();
        size_ = 0;
    }

    /** Leaf blocks ever allocated (pool size, survives clear()). */
    std::uint32_t
    poolSize() const
    {
        return static_cast<std::uint32_t>(blocks_.size());
    }

    /**
     * Structural self-audit (FS_AUDIT=paranoid; see src/check).
     * Verifies key order inside and across blocks, each block's fill
     * against its directory count, each cached first key, dirPos_
     * against the directory, each stored key's handle, the total
     * size and the pool / free-list accounting. O(n); not for hot
     * paths.
     *
     * @return "" when consistent, else the first violation found.
     */
    std::string
    auditInvariants() const
    {
        std::size_t live = first_.size();
        if (before_.size() != live || blockOf_.size() != live)
            return strprintf("directory columns disagree: %zu first "
                             "keys, %zu counts, %zu block ids", live,
                             before_.size(), blockOf_.size());
        if (dirPos_.size() != blocks_.size())
            return strprintf("dirPos_ covers %zu blocks of a pool "
                             "of %zu", dirPos_.size(),
                             blocks_.size());
        std::vector<bool> used(blocks_.size(), false);
        for (std::uint32_t id : freeList_) {
            if (id >= blocks_.size() || used[id])
                return strprintf("pool accounting: free block %u is "
                                 "out of the pool or listed twice",
                                 id);
            used[id] = true;
        }
        std::uint32_t total = 0;
        for (std::size_t d = 0; d < live; ++d) {
            std::uint32_t id = blockOf_[d];
            if (id >= blocks_.size() || used[id])
                return strprintf("pool accounting: directory entry "
                                 "%zu names block %u, which is out "
                                 "of the pool, free or shared", d,
                                 id);
            used[id] = true;
            if (dirPos_[id] != d)
                return strprintf("stale dirPos_: block %u at "
                                 "directory entry %zu records entry "
                                 "%u", id, d, dirPos_[id]);
            const Block &b = blocks_[id];
            if (b.n == 0 || b.n > kBlockKeys ||
                (live > 1 && b.n < kMinFill))
                return strprintf("block %u holds %u keys (capacity "
                                 "%u, %zu blocks)", id, b.n,
                                 kBlockKeys, live);
            if (before_[d] != total)
                return strprintf("count drift: directory entry %zu "
                                 "counts %u keys before it, the "
                                 "blocks hold %u", d, before_[d],
                                 total);
            if (!(first_[d] == b.keys[0]))
                return strprintf("stale first key at directory "
                                 "entry %zu", d);
            for (std::uint32_t i = 0; i < b.n; ++i) {
                LineId line = b.keys[i].line;
                if (line >= handles_->h_.size() ||
                    handles_->h_[line] != handleFor(id, i))
                    return strprintf("stale handle: line %u sits at "
                                     "block %u slot %u", line, id,
                                     i);
                if (i > 0 && !(b.keys[i - 1] < b.keys[i]))
                    return strprintf("key order violation inside "
                                     "block %u at slot %u", id, i);
            }
            if (d > 0) {
                const Block &prev = blocks_[blockOf_[d - 1]];
                if (!(prev.keys[prev.n - 1] < b.keys[0]))
                    return strprintf("key order violation across "
                                     "directory entries %zu and %zu",
                                     d - 1, d);
            }
            total += b.n;
        }
        if (total != size_)
            return strprintf("size counter %u but the blocks hold %u "
                             "keys", size_, total);
        if (live + freeList_.size() != blocks_.size())
            return strprintf("pool accounting: %zu live + %zu free "
                             "!= %zu allocated blocks", live,
                             freeList_.size(), blocks_.size());
        return std::string();
    }

    /**
     * Deliberately inflate the size counter by one (FS_FAULTS
     * `cell=N:corrupt-treap`). Chosen because it is silent *and*
     * navigation-safe: handles, searches and ranks read the
     * directory and the blocks, never the counter, so no later
     * erase/reKey can crash on it — yet size() (and with it every
     * partLines() sum and exactFutility() denominator) is now
     * wrong, which is precisely what auditOccupancySums, the size
     * audit and the shadow model's futility check exist to detect.
     * Returns false on an empty index (nothing was corrupted).
     */
    bool
    corruptSizeForFaultInjection()
    {
        if (empty())
            return false;
        ++size_;
        return true;
    }

    /** Test-only backdoor for corrupting private state (defined as
     *  an explicit specialization by the self-check unit tests). */
    struct TestAccess;

  private:
    friend struct TestAccess;
    static constexpr std::uint32_t kSlotBits = 6;
    static constexpr std::uint32_t kSlotMask = kBlockKeys - 1;
    static_assert(kBlockKeys == 1u << kSlotBits,
                  "a handle's slot field must fit a block");
    /** Block ids stay below this, so no handle equals kNone. */
    static constexpr std::uint32_t kMaxBlocks =
        LineHandles::kNone >> kSlotBits;

    struct Block
    {
        std::uint32_t n = 0;
        Key keys[kBlockKeys];
    };

    static std::uint32_t
    handleFor(std::uint32_t id, std::uint32_t slot)
    {
        return id << kSlotBits | slot;
    }

    /** Point the handles of block id's slots [from, to) at them. */
    void
    rehome(std::uint32_t id, std::uint32_t from, std::uint32_t to)
    {
        const Block &b = blocks_[id];
        for (std::uint32_t i = from; i < to; ++i)
            handles_->h_[b.keys[i].line] = handleFor(id, i);
    }

    /**
     * Directory entry d and slot i of a line this index holds, read
     * off its handle; false when the handle does not lead to a live
     * slot of this index holding the line (an absent line, or one
     * held by another index sharing the table).
     */
    bool
    locateLine(LineId line, std::uint32_t &d, std::uint32_t &i) const
    {
        if (line >= handles_->h_.size())
            return false;
        std::uint32_t h = handles_->h_[line];
        std::uint32_t id = h >> kSlotBits;
        i = h & kSlotMask;
        if (h == LineHandles::kNone || id >= dirPos_.size())
            return false;
        d = dirPos_[id];
        return d < blockOf_.size() && blockOf_[d] == id &&
               i < blocks_[id].n && blocks_[id].keys[i].line == line;
    }

    /** locateLine() of key.line, and that line's key is key. */
    bool
    locate(const Key &key, std::uint32_t &d, std::uint32_t &i) const
    {
        return locateLine(key.line, d, i) &&
               blocks_[blockOf_[d]].keys[i] == key;
    }

    /**
     * Number of the n sorted keys at a that are < key (kOrEqual:
     * <= key). The loop runs a fixed ceil(log2 n) halving steps
     * whatever the comparisons say, and each step is a select, not a
     * branch, so the compiler can emit a conditional move.
     */
    template <bool kOrEqual = false>
    static std::uint32_t
    lowerBound(const Key *a, std::uint32_t n, const Key &key)
    {
        if (n == 0)
            return 0;
        const Key *base = a;
        while (n > 1) {
            std::uint32_t half = n / 2;
            bool right = kOrEqual ? !(key < base[half])
                                  : base[half] < key;
            base = right ? base + half : base;
            n -= half;
        }
        bool past = kOrEqual ? !(key < *base) : *base < key;
        return static_cast<std::uint32_t>(base - a) + past;
    }

    /** Directory entry whose block holds (or would hold) key: the
     *  last one whose first key is <= key, else the first. */
    std::uint32_t
    slotFor(const Key &key) const
    {
        std::uint32_t le = lowerBound<true>(
            first_.data(), static_cast<std::uint32_t>(first_.size()),
            key);
        return le == 0 ? 0 : le - 1;
    }

    /** Add delta to the cumulative counts after entry d. */
    void
    addAfter(std::uint32_t d, std::uint32_t delta)
    {
        for (std::size_t e = d + 1; e < before_.size(); ++e)
            before_[e] += delta;
    }

    /** Refresh dirPos_ of the blocks at entries d and later. */
    void
    renumberFrom(std::uint32_t d)
    {
        for (std::size_t e = d; e < blockOf_.size(); ++e)
            dirPos_[blockOf_[e]] = static_cast<std::uint32_t>(e);
    }

    /**
     * Reserve every pool for twice the most blocks the current
     * population can occupy. All blocks but a sole one hold at least
     * kMinFill keys, so size() / kMinFill + 1 bounds the live blocks
     * and hence the pool; insert() calls this whenever size() outgrows
     * the reserve. The pools therefore grow only as the population
     * reaches new high-water marks, and splits, merges and re-keys in
     * between never allocate (tests/test_hot_alloc.cc).
     */
    void
    growPools()
    {
        std::size_t cap = 2 * (size_ / kMinFill + 2);
        // fs-analyze: allow(hot-path-alloc) amortized: runs only when
        // the population doubles past its last high-water mark.
        blocks_.reserve(cap);
        // fs-analyze: allow(hot-path-alloc) see blocks_ above.
        dirPos_.reserve(cap);
        // fs-analyze: allow(hot-path-alloc) see blocks_ above.
        freeList_.reserve(cap);
        // fs-analyze: allow(hot-path-alloc) see blocks_ above.
        first_.reserve(cap);
        // fs-analyze: allow(hot-path-alloc) see blocks_ above.
        before_.reserve(cap);
        // fs-analyze: allow(hot-path-alloc) see blocks_ above.
        blockOf_.reserve(cap);
    }

    std::uint32_t
    allocBlock()
    {
        if (!freeList_.empty()) {
            std::uint32_t id = freeList_.back();
            freeList_.pop_back();
            blocks_[id].n = 0;
            return id;
        }
        auto id = static_cast<std::uint32_t>(blocks_.size());
        fs_assert(id < kMaxBlocks, "order-statistic index too large "
                                   "for its handles");
        // fs-analyze: allow(hot-path-alloc) never grows: growPools()
        // keeps the capacity above the live-block bound.
        blocks_.emplace_back();
        // fs-analyze: allow(hot-path-alloc) see blocks_ above.
        dirPos_.push_back(0);
        return id;
    }

    /** Return directory entry d's block to the pool and drop the
     *  entry. */
    void
    releaseEntry(std::uint32_t d)
    {
        // fs-analyze: allow(hot-path-alloc) never grows: its
        // capacity is the pool's (growPools()).
        freeList_.push_back(blockOf_[d]);
        first_.erase(first_.begin() + d);
        before_.erase(before_.begin() + d);
        blockOf_.erase(blockOf_.begin() + d);
        renumberFrom(d);
    }

    /** Remove slot i of directory entry d's block, then rebalance.
     *  The removed key's handle is left for the caller. */
    void
    removeAt(std::uint32_t d, std::uint32_t i)
    {
        std::uint32_t id = blockOf_[d];
        Block &b = blocks_[id];
        std::copy(b.keys + i + 1, b.keys + b.n, b.keys + i);
        --b.n;
        --size_;
        rehome(id, i, b.n);
        addAfter(d, ~0u);
        if (b.n > 0)
            first_[d] = b.keys[0];
        if (b.n == 0 && first_.size() == 1)
            releaseEntry(0);
        else if (b.n < kMinFill && first_.size() > 1)
            rebalance(d + 1 < first_.size() ? d : d - 1);
    }

    /** Split the full block of entry d; the upper half moves to a
     *  new block whose entry follows d. */
    void
    split(std::uint32_t d)
    {
        std::uint32_t id = allocBlock();
        Block &lo = blocks_[blockOf_[d]];
        Block &hi = blocks_[id];
        constexpr std::uint32_t kHalf = kBlockKeys / 2;
        std::copy(lo.keys + kHalf, lo.keys + kBlockKeys, hi.keys);
        lo.n = kHalf;
        hi.n = kBlockKeys - kHalf;
        rehome(id, 0, hi.n);
        // fs-analyze: allow(hot-path-alloc) never grows: the
        // directory's capacity is the pool's (growPools()).
        first_.insert(first_.begin() + d + 1, hi.keys[0]);
        // fs-analyze: allow(hot-path-alloc) see first_ above.
        before_.insert(before_.begin() + d + 1, before_[d] + kHalf);
        // fs-analyze: allow(hot-path-alloc) see first_ above.
        blockOf_.insert(blockOf_.begin() + d + 1, id);
        renumberFrom(d + 1);
    }

    /** Merge the blocks of entries l and l + 1, or even out their
     *  fill when one block could not hold both comfortably. */
    void
    rebalance(std::uint32_t l)
    {
        std::uint32_t loId = blockOf_[l];
        std::uint32_t hiId = blockOf_[l + 1];
        Block &lo = blocks_[loId];
        Block &hi = blocks_[hiId];
        std::uint32_t loN = lo.n;
        std::uint32_t total = loN + hi.n;
        if (total <= kBlockKeys * 3 / 4) {
            std::copy(hi.keys, hi.keys + hi.n, lo.keys + loN);
            lo.n = total;
            rehome(loId, loN, total);
            first_[l] = lo.keys[0];
            releaseEntry(l + 1);
            return;
        }
        std::uint32_t want = total / 2;
        if (loN > want) {
            std::uint32_t m = loN - want;
            std::copy_backward(hi.keys, hi.keys + hi.n,
                               hi.keys + hi.n + m);
            std::copy(lo.keys + want, lo.keys + loN, hi.keys);
        } else {
            std::uint32_t m = want - loN;
            std::copy(hi.keys, hi.keys + m, lo.keys + loN);
            std::copy(hi.keys + m, hi.keys + hi.n, hi.keys);
            rehome(loId, loN, want);
        }
        hi.n = total - want;
        lo.n = want;
        rehome(hiId, 0, hi.n);
        first_[l] = lo.keys[0];
        first_[l + 1] = hi.keys[0];
        before_[l + 1] = before_[l] + want;
    }

    LineHandles *handles_;
    std::vector<Block> blocks_;
    /** Directory entry of each block id (stale for free blocks). */
    std::vector<std::uint32_t> dirPos_;
    std::vector<std::uint32_t> freeList_;
    /** Directory columns, one entry per live block in key order. */
    std::vector<Key> first_;
    std::vector<std::uint32_t> before_;
    std::vector<std::uint32_t> blockOf_;
    std::uint32_t size_ = 0;
};

} // namespace fscache

#endif // FSCACHE_COMMON_ORDER_STAT_INDEX_HH
