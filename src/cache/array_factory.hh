/**
 * @file
 * Config-driven construction of cache arrays.
 */

#ifndef FSCACHE_CACHE_ARRAY_FACTORY_HH
#define FSCACHE_CACHE_ARRAY_FACTORY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "cache/cache_array.hh"
#include "common/hashing.hh"

namespace fscache
{

/** Supported array organizations. */
enum class ArrayKind
{
    SetAssoc,
    DirectMapped,
    ZCache,
    RandomCands,
    FullyAssoc,
};

/** Array configuration; fields are interpreted per kind. */
struct ArrayConfig
{
    ArrayKind kind = ArrayKind::SetAssoc;

    /** Total line slots. */
    LineId numLines = 1 << 14;

    /** SetAssoc: associativity. */
    std::uint32_t ways = 16;

    /** SetAssoc: index hash. */
    HashKind hash = HashKind::XorFold;

    /** ZCache: hash banks. */
    std::uint32_t banks = 4;

    /** ZCache: walk depth. */
    std::uint32_t walkLevels = 2;

    /** RandomCands: candidates per replacement. */
    std::uint32_t randomCands = 16;

    /** Seed for hashes / candidate sampling. */
    std::uint64_t seed = 1;
};

/** Parse an ArrayKind name (fatal on unknown). */
ArrayKind parseArrayKind(const std::string &name);

/** Build an array per the config. */
std::unique_ptr<CacheArray> makeArray(const ArrayConfig &cfg);

} // namespace fscache

#endif // FSCACHE_CACHE_ARRAY_FACTORY_HH
