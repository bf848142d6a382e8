/**
 * @file
 * Small bit-manipulation helpers used by hashing, the cache arrays
 * and the recency index's mark words (common/fenwick.hh).
 */

#ifndef FSCACHE_COMMON_BITS_HH
#define FSCACHE_COMMON_BITS_HH

#include <bit>
#include <cstdint>

namespace fscache
{

/** True iff x is a power of two (0 is not). */
constexpr bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)); x must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t x)
{
    return 63u - static_cast<unsigned>(std::countl_zero(x));
}

/** ceil(log2(x)); x must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t x)
{
    return isPow2(x) ? floorLog2(x) : floorLog2(x) + 1;
}

/** Smallest power of two >= x (x must be <= 2^63). */
constexpr std::uint64_t
ceilPow2(std::uint64_t x)
{
    return x <= 1 ? 1 : (1ull << ceilLog2(x));
}

/** Parity (XOR of all bits) of x. */
constexpr unsigned
parity(std::uint64_t x)
{
    return static_cast<unsigned>(std::popcount(x)) & 1u;
}

/**
 * Set-bit count of each byte of x, in that byte: the first three
 * steps of the SWAR (SIMD-within-a-register) popcount.
 */
constexpr std::uint64_t
byteCounts(std::uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
}

/**
 * Number of set bits in x: the byte counts summed into the top byte
 * by one multiply. std::popcount compiles to a libgcc call on a
 * baseline x86-64 build (no POPCNT instruction is assumed), which
 * costs more than these dozen inline operations on the rank paths.
 */
constexpr unsigned
popcount64(std::uint64_t x)
{
    return static_cast<unsigned>((byteCounts(x) * 0x0101010101010101ull) >>
                                 56);
}

/**
 * Bit index of the k-th lowest set bit of x (0-based: k = 0 is the
 * lowest set bit). Requires k < popcount64(x). Byte prefix counts
 * locate the byte with one compare of all eight prefixes at once;
 * the bit inside that byte is at most seven clears of the lowest
 * set bit away.
 */
constexpr unsigned
selectBit(std::uint64_t x, unsigned k)
{
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighs = 0x8080808080808080ull;
    // Byte i of `prefix` counts the set bits in bytes 0..i (at most
    // 64, so no byte carries into the next).
    std::uint64_t prefix = byteCounts(x) * kOnes;
    // Byte i of (k | 0x80) - prefix_i keeps its high bit iff
    // prefix_i <= k; the counts are monotone, so those bytes are
    // the low run and the first byte without it holds the bit.
    std::uint64_t le = ((k * kOnes) | kHighs) - prefix;
    unsigned shift = static_cast<unsigned>(
                         std::countr_zero(~le & kHighs)) -
                     7;
    unsigned below = static_cast<unsigned>((prefix << 8) >> shift) & 0xff;
    unsigned byte = static_cast<unsigned>(x >> shift) & 0xff;
    for (unsigned skip = k - below; skip > 0; --skip)
        byte &= byte - 1;
    return shift + static_cast<unsigned>(std::countr_zero(byte));
}

} // namespace fscache

#endif // FSCACHE_COMMON_BITS_HH
