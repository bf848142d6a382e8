/**
 * @file
 * Shared machinery for rankings whose exact per-partition order IS
 * recency — every install and every hit moves the line to the
 * newest end, nothing ever re-keys to the middle (exact LRU, the
 * coarse-timestamp LRU's exact shadow order, Random's exact order).
 *
 * That monotonicity admits a cheaper order structure than the
 * general order-statistic index (ranking/keyed_ranking_base.hh):
 * lines are laid out on a RecencyIndex stamp axis
 * (common/recency_index.hh) and a per-partition Fenwick tree
 * (common/fenwick.hh) counts resident lines per stamp prefix. Exact
 * rank = partition size minus the count of older residents; the
 * least-recent line is the first marked stamp. Every operation is
 * O(log capacity) over contiguous arrays — no node allocation, no
 * pointer chasing, no rebalancing.
 *
 * Byte-identity with a keyed order: stamps are assigned in call
 * order, exactly the order of strictly increasing usefulness clocks,
 * and relocate and retag keep a line's stamp just as a keyed ranking
 * keeps its primary, so every rank is the identical integer and
 * every futility the identical double. (Rankings with non-monotone
 * keys — LFU, OPT, RRIP — use KeyedRankingBase.)
 */

#ifndef FSCACHE_RANKING_RECENCY_RANKING_BASE_HH
#define FSCACHE_RANKING_RECENCY_RANKING_BASE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/fenwick.hh"
#include "common/recency_index.hh"
#include "ranking/futility_ranking.hh"

namespace fscache
{

/** See file comment. */
class RecencyRankingBase : public FutilityRanking
{
  public:
    explicit RecencyRankingBase(LineId num_lines);

    void onEvict(LineId id) override;
    void onRelocate(LineId from, LineId to) override;
    void onRetag(LineId id, PartId new_part) override;

    double exactFutility(LineId id) const override;
    LineId worstIn(PartId part) const override;
    std::uint32_t partLines(PartId part) const override;
    PartId partOf(LineId id) const override { return partOf_[id]; }
    std::string auditInvariants() const override;
    bool corruptRankNodeForFaultInjection() override;

  protected:
    /** Insert a not-present line as its partition's newest. */
    void placeNewest(LineId id, PartId part);

    /** Move a present line to its partition's newest (hit path). */
    void touchNewest(LineId id);

    /** Remove a present line. */
    void remove(LineId id);

    /**
     * Batched exactFutility() for rankings whose scheme futility IS
     * the exact rank (exact LRU): direct prefix-count queries.
     */
    void exactFutilityManyImpl(std::span<const LineId> ids,
                               double *out) const;

    bool present(LineId id) const { return present_[id] != 0; }

  private:
    /** Append `id` as the newest line, compacting the axis first
     *  when it is full; returns the line's stamp. */
    std::uint32_t stampNewest(LineId id);

    /**
     * Compact the stamp axis (RecencyIndex::compact) and rebuild
     * the stamp map and the partition Fenwicks from it. Runs once
     * per ~capacity - num_lines stamp allocations, so its
     * O(partitions x capacity) cost amortizes to O(1) per touch; it
     * allocates nothing (the axis is sized to twice the line count,
     * so it never grows).
     */
    void renumber();

    /** Grow the per-partition structures to cover `part`. */
    void ensurePart(PartId part);

    /** Line at each stamp; capacity >= 2x the line count, so at
     *  least half of every renumber interval is fresh stamps. */
    RecencyIndex<LineId, kInvalidLine> axis_;
    /** Stamp of each present line; inverse of axis_ over them. */
    std::vector<std::uint32_t> stampOf_;
    /** Per-partition mark-per-resident Fenwick over the stamp axis. */
    std::vector<FenwickTree> fens_;
    /** Per-partition resident-line counts. Kept separate from the
     *  Fenwick totals so the corruption fault hook has an
     *  independently-auditable counter to damage (mirroring the
     *  keyed rankings' index size counter). */
    std::vector<std::uint32_t> size_;
    std::vector<PartId> partOf_;
    /**
     * Byte- (not bit-) backed presence flags: every hot operation
     * tests this once per access, and vector<bool>'s masked bit
     * loads cost more than the 8x memory on these hot checks.
     */
    std::vector<std::uint8_t> present_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_RECENCY_RANKING_BASE_HH
