/**
 * @file
 * Fluent public configuration API for assembling a partitioned
 * cache. The quickstart example shows typical use:
 *
 *   auto cache = CacheBuilder()
 *                    .sizeBytes(8 << 20)
 *                    .setAssociative(16)
 *                    .ranking(RankKind::CoarseTsLru)
 *                    .scheme(SchemeKind::Fs)
 *                    .partitions(32)
 *                    .build();
 */

#ifndef FSCACHE_CORE_CACHE_BUILDER_HH
#define FSCACHE_CORE_CACHE_BUILDER_HH

#include <cstdint>
#include <memory>

#include "sim/experiment.hh"

namespace fscache
{

/** See file comment. */
class CacheBuilder
{
  public:
    /** Capacity in bytes (with lineBytes, sets the line count). */
    CacheBuilder &sizeBytes(std::uint64_t bytes);

    /** Line size in bytes (default 64). */
    CacheBuilder &lineBytes(std::uint32_t bytes);

    /** Capacity directly in lines (overrides sizeBytes). */
    CacheBuilder &lines(LineId num_lines);

    CacheBuilder &setAssociative(std::uint32_t ways,
                                 HashKind hash = HashKind::XorFold);
    CacheBuilder &directMapped(HashKind hash = HashKind::XorFold);
    CacheBuilder &zcache(std::uint32_t banks, std::uint32_t levels);
    CacheBuilder &randomCandidates(std::uint32_t candidates);
    CacheBuilder &fullyAssociative();

    CacheBuilder &ranking(RankKind kind);
    CacheBuilder &scheme(SchemeKind kind);
    CacheBuilder &fsConfig(const FsFeedbackConfig &cfg);
    CacheBuilder &vantageConfig(const VantageConfig &cfg);
    CacheBuilder &prismConfig(const PrismConfig &cfg);

    CacheBuilder &partitions(std::uint32_t n);
    CacheBuilder &seed(std::uint64_t s);

    /** Validate and assemble. */
    std::unique_ptr<PartitionedCache> build() const;

    /** The resolved low-level spec (for inspection/tests). */
    const CacheSpec &spec() const { return spec_; }

  private:
    CacheSpec spec_;
    std::uint64_t sizeBytes_ = 8ull << 20;
    std::uint32_t lineBytes_ = 64;
    bool explicitLines_ = false;
};

} // namespace fscache

#endif // FSCACHE_CORE_CACHE_BUILDER_HH
