/**
 * @file
 * RRIP futility ranking (Static RRIP, Jaleel et al., ISCA 2010) as
 * an additional practical futility policy.
 *
 * The paper's FS is "conceptually independent of a futility ranking
 * scheme" (Section VI); besides the coarse-timestamp LRU it
 * evaluates, any policy that orders lines by predicted uselessness
 * plugs in. SRRIP ranks lines by a saturating M-bit re-reference
 * prediction value (RRPV): inserted lines start at 2^M - 2
 * ("long"), hits promote to 0 ("near-immediate"), so scan-heavy
 * workloads that thrash LRU keep their reused core resident.
 *
 * Scheme futility is RRPV / (2^M - 1), with the exact per-partition
 * LRU shadow breaking ties for worst-line queries and statistics.
 * That exact order ("RRIP with LRU tie-break") lives in
 * KeyedRankingBase's per-partition order-statistic index
 * (common/order_stat_index.hh); the scheme futility itself reads only
 * the per-line RRPV and last-touch arrays.
 */

#ifndef FSCACHE_RANKING_RRIP_RANKING_HH
#define FSCACHE_RANKING_RRIP_RANKING_HH

#include <span>
#include <vector>

#include "ranking/keyed_ranking_base.hh"

namespace fscache
{

/** See file comment. */
class RripRanking : public KeyedRankingBase
{
  public:
    /**
     * @param num_lines line slots
     * @param rrpv_bits RRPV width M (SRRIP default 2)
     */
    explicit RripRanking(LineId num_lines,
                         std::uint32_t rrpv_bits = 2);

    void
    onInstall(LineId id, PartId part, AccessTime) override
    {
        rrpv_[id] = static_cast<std::uint8_t>(rrpvMax_ - 1);
        lastTouch_[id] = ++clock_;
        place(id, part, usefulness(id));
    }

    void
    onHit(LineId id, AccessTime) override
    {
        rrpv_[id] = 0; // hit promotion (SRRIP-HP)
        lastTouch_[id] = ++clock_;
        reKey(id, usefulness(id));
    }

    void
    onRelocate(LineId from, LineId to) override
    {
        KeyedRankingBase::onRelocate(from, to);
        // RRPV and last-touch are line metadata and must follow the
        // line, or a zcache relocation leaves the moved line
        // predicted by the destination slot's stale state.
        rrpv_[to] = rrpv_[from];
        lastTouch_[to] = lastTouch_[from];
        rrpv_[from] = 0;
        lastTouch_[from] = 0;
    }

    /**
     * RRPV dominates; recency breaks ties within an RRPV level
     * (standing in for SRRIP's aging sweep, which a candidate-list
     * model cannot express globally).
     */
    double
    schemeFutility(LineId id) const override
    {
        double tie =
            clock_ ? 1.0 - static_cast<double>(lastTouch_[id]) /
                               static_cast<double>(clock_)
                   : 0.0;
        return (static_cast<double>(rrpv_[id]) + tie) /
               (rrpvMax_ + 1.0);
    }

    /** Batched estimate off the rrpv_/lastTouch_ arrays; the
     *  estimate never reads the exact-order index. */
    void
    schemeFutilityMany(std::span<const LineId> ids,
                       double *out) const override
    {
        for (std::size_t i = 0; i < ids.size(); ++i)
            out[i] = RripRanking::schemeFutility(ids[i]);
    }

    std::uint32_t rrpv(LineId id) const { return rrpv_[id]; }

    std::string name() const override { return "rrip"; }

  private:
    /**
     * Usefulness key: low RRPV dominates, recency breaks ties, so
     * the exact shadow order is "RRIP with LRU tie-break".
     */
    std::uint64_t
    usefulness(LineId id)
    {
        std::uint64_t inv =
            rrpvMax_ - rrpv_[id]; // larger = more useful
        return (inv << 56) | (lastTouch_[id] & ((1ull << 56) - 1));
    }

    std::uint32_t rrpvMax_;
    std::vector<std::uint8_t> rrpv_;
    std::vector<std::uint64_t> lastTouch_;
    std::uint64_t clock_ = 0;
};

} // namespace fscache

#endif // FSCACHE_RANKING_RRIP_RANKING_HH
