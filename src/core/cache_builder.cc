#include "core/cache_builder.hh"

#include "common/log.hh"

namespace fscache
{

CacheBuilder &
CacheBuilder::sizeBytes(std::uint64_t bytes)
{
    fs_assert(bytes > 0, "cache size must be positive");
    sizeBytes_ = bytes;
    explicitLines_ = false;
    return *this;
}

CacheBuilder &
CacheBuilder::lineBytes(std::uint32_t bytes)
{
    fs_assert(bytes > 0, "line size must be positive");
    lineBytes_ = bytes;
    return *this;
}

CacheBuilder &
CacheBuilder::lines(LineId num_lines)
{
    fs_assert(num_lines > 0, "line count must be positive");
    spec_.array.numLines = num_lines;
    explicitLines_ = true;
    return *this;
}

CacheBuilder &
CacheBuilder::setAssociative(std::uint32_t ways, HashKind hash)
{
    spec_.array.kind = ArrayKind::SetAssoc;
    spec_.array.ways = ways;
    spec_.array.hash = hash;
    return *this;
}

CacheBuilder &
CacheBuilder::directMapped(HashKind hash)
{
    spec_.array.kind = ArrayKind::DirectMapped;
    spec_.array.hash = hash;
    return *this;
}

CacheBuilder &
CacheBuilder::zcache(std::uint32_t banks, std::uint32_t levels)
{
    spec_.array.kind = ArrayKind::ZCache;
    spec_.array.banks = banks;
    spec_.array.walkLevels = levels;
    return *this;
}

CacheBuilder &
CacheBuilder::randomCandidates(std::uint32_t candidates)
{
    spec_.array.kind = ArrayKind::RandomCands;
    spec_.array.randomCands = candidates;
    return *this;
}

CacheBuilder &
CacheBuilder::fullyAssociative()
{
    spec_.array.kind = ArrayKind::FullyAssoc;
    return *this;
}

CacheBuilder &
CacheBuilder::ranking(RankKind kind)
{
    spec_.ranking = kind;
    return *this;
}

CacheBuilder &
CacheBuilder::scheme(SchemeKind kind)
{
    spec_.scheme.kind = kind;
    return *this;
}

CacheBuilder &
CacheBuilder::fsConfig(const FsFeedbackConfig &cfg)
{
    spec_.scheme.fs = cfg;
    return *this;
}

CacheBuilder &
CacheBuilder::vantageConfig(const VantageConfig &cfg)
{
    spec_.scheme.vantage = cfg;
    return *this;
}

CacheBuilder &
CacheBuilder::prismConfig(const PrismConfig &cfg)
{
    spec_.scheme.prism = cfg;
    return *this;
}

CacheBuilder &
CacheBuilder::partitions(std::uint32_t n)
{
    fs_assert(n >= 1, "need at least one partition");
    spec_.numParts = n;
    return *this;
}

CacheBuilder &
CacheBuilder::seed(std::uint64_t s)
{
    spec_.seed = s;
    return *this;
}

std::unique_ptr<PartitionedCache>
CacheBuilder::build() const
{
    CacheSpec spec = spec_;
    if (!explicitLines_) {
        fs_assert(sizeBytes_ % lineBytes_ == 0,
                  "cache size not a multiple of the line size");
        spec.array.numLines =
            static_cast<LineId>(sizeBytes_ / lineBytes_);
    }
    return buildCache(spec);
}

} // namespace fscache
