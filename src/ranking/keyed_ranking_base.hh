/**
 * @file
 * Shared machinery for rankings that keep an exact per-partition
 * order by an arbitrary key: one blocked order-statistic index
 * (common/order_stat_index.hh) per partition keyed by a
 * "usefulness" value (larger = more useful), plus per-line metadata.
 *
 * The base owns the one LineHandles table that every partition's
 * index shares (a line lives in one partition at a time). A line's
 * handle gives its position in its partition's index, so its rank —
 * every eviction candidate's futility — is two loads with no
 * search, and its current key is read at the same position instead
 * of being kept in a second per-line array.
 *
 * Concrete rankings (LFU, OPT, RRIP) derive and translate their
 * policy (frequency, next use, RRIP age) into the primary key; those
 * keys move both ways, so they need the general index. Rankings
 * whose order is pure recency — every update moves the line to the
 * newest end — use the Fenwick-backed RecencyRankingBase instead
 * (ranking/recency_ranking_base.hh).
 */

#ifndef FSCACHE_RANKING_KEYED_RANKING_BASE_HH
#define FSCACHE_RANKING_KEYED_RANKING_BASE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/order_stat_index.hh"
#include "ranking/futility_ranking.hh"

namespace fscache
{

/** See file comment. */
class KeyedRankingBase : public FutilityRanking
{
  public:
    explicit KeyedRankingBase(LineId num_lines);
    /** The indexes point at handles_, so the base never moves. */
    KeyedRankingBase(const KeyedRankingBase &) = delete;
    KeyedRankingBase &operator=(const KeyedRankingBase &) = delete;

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
    /** Usefulness key: primary, ties broken by line id. */
    using Key = LineKey;

    /** Insert a not-present line with the given usefulness. */
    void place(LineId id, PartId part, std::uint64_t primary);

    /** Update a present line's usefulness (same partition). */
    void reKey(LineId id, std::uint64_t primary);

    /** Remove a present line. */
    void remove(LineId id);

    /**
     * Batched exactFutility() for rankings whose scheme futility IS
     * the exact rank (LFU/OPT): direct rank queries.
     */
    void exactFutilityManyImpl(std::span<const LineId> ids,
                               double *out) const;

  private:
    OrderStatIndex<Key> &indexFor(PartId part);
    const OrderStatIndex<Key> *indexFor(PartId part) const;

    /** Position handles of every line, in whichever partition's
     *  index holds it; a held handle is also the presence flag. */
    LineHandles handles_;
    std::vector<OrderStatIndex<Key>> indexes_;
    std::vector<PartId> partOf_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_KEYED_RANKING_BASE_HH
