/**
 * @file
 * OPT (Belady) futility ranking: lines ranked by time to next
 * reference; the line reused farthest in the future is the most
 * futile, never-reused lines most of all (paper Section III.A).
 *
 * Requires traces annotated by annotateNextUse().
 *
 * The next use maps to a usefulness key, and KeyedRankingBase keeps
 * the keys in one order-statistic index per partition
 * (common/order_stat_index.hh), so every candidate's futility is its
 * exact rank. Never-used lines share primary 0 and are ordered by
 * line id. Each hit re-keys the line to an arbitrary new position.
 */

#ifndef FSCACHE_RANKING_OPT_RANKING_HH
#define FSCACHE_RANKING_OPT_RANKING_HH

#include <span>

#include "ranking/keyed_ranking_base.hh"

namespace fscache
{

/** See file comment. */
class OptRanking : public KeyedRankingBase
{
  public:
    explicit OptRanking(LineId num_lines)
        : KeyedRankingBase(num_lines)
    {
    }

    void
    onInstall(LineId id, PartId part, AccessTime next_use) override
    {
        place(id, part, usefulness(next_use));
    }

    void
    onHit(LineId id, AccessTime next_use) override
    {
        reKey(id, usefulness(next_use));
    }

    double
    schemeFutility(LineId id) const override
    {
        return exactFutility(id);
    }

    bool schemeFutilityIsExact() const override { return true; }

    void
    schemeFutilityMany(std::span<const LineId> ids,
                       double *out) const override
    {
        exactFutilityManyImpl(ids, out);
    }

    std::string name() const override { return "opt"; }

  private:
    /** Sooner next use => larger usefulness; never-used => 0. */
    static std::uint64_t
    usefulness(AccessTime next_use)
    {
        return kNeverUsed - next_use;
    }
};

} // namespace fscache

#endif // FSCACHE_RANKING_OPT_RANKING_HH
