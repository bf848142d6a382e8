/**
 * @file
 * LFU futility ranking: lines ranked by access frequency, recency
 * breaking ties (so the ranking stays a strict total order, as the
 * paper's model requires).
 *
 * The frequency and a global clock pack into one usefulness key;
 * KeyedRankingBase keeps the keys in one order-statistic index per
 * partition (common/order_stat_index.hh), so every candidate's
 * futility is its exact rank. A hit raises the key, which moves the
 * line within or across the index's leaf blocks.
 */

#ifndef FSCACHE_RANKING_LFU_RANKING_HH
#define FSCACHE_RANKING_LFU_RANKING_HH

#include <vector>

#include <span>

#include "ranking/keyed_ranking_base.hh"

namespace fscache
{

/** See file comment. */
class LfuRanking : public KeyedRankingBase
{
  public:
    explicit LfuRanking(LineId num_lines)
        : KeyedRankingBase(num_lines), freq_(num_lines, 0)
    {
    }

    void
    onInstall(LineId id, PartId part, AccessTime) override
    {
        freq_[id] = 1;
        place(id, part, usefulness(id));
    }

    void
    onHit(LineId id, AccessTime) override
    {
        if (freq_[id] < kFreqCap)
            ++freq_[id];
        reKey(id, usefulness(id));
    }

    void
    onRelocate(LineId from, LineId to) override
    {
        KeyedRankingBase::onRelocate(from, to);
        // The frequency is line metadata and must follow the line,
        // or a zcache relocation leaves the moved line counting
        // from whatever stale value the destination slot last held.
        freq_[to] = freq_[from];
        freq_[from] = 0;
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

    std::string name() const override { return "lfu"; }

    std::uint32_t frequency(LineId id) const { return freq_[id]; }

  private:
    /** Frequency dominates; recency (a global clock) breaks ties. */
    std::uint64_t
    usefulness(LineId id)
    {
        ++clock_;
        return (static_cast<std::uint64_t>(freq_[id]) << 44) |
               (clock_ & ((1ull << 44) - 1));
    }

    static constexpr std::uint32_t kFreqCap = (1u << 19) - 1;

    std::vector<std::uint32_t> freq_;
    std::uint64_t clock_ = 0;
};

} // namespace fscache

#endif // FSCACHE_RANKING_LFU_RANKING_HH
