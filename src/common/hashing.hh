/**
 * @file
 * Index hash functions for cache arrays.
 *
 * The quality of the index hash decides how close a real array gets
 * to the paper's Uniformity Assumption (Section IV.A). Three
 * families are provided:
 *
 *  - ModuloHash:  classic low-bits indexing (the worst case);
 *  - XorFoldHash: XOR-folds the whole line address onto the index
 *    bits, the "XOR-based indexing" the paper's L2 uses (Table II);
 *  - H3Hash:      a universal H3 matrix hash (random parity masks),
 *    the family recommended for zcache arrays.
 *
 * All hashes map a line address to a bucket in [0, buckets). Buckets
 * need not be a power of two (a multiply-shift range reduction is
 * used), although power-of-two set counts are the common case.
 */

#ifndef FSCACHE_COMMON_HASHING_HH
#define FSCACHE_COMMON_HASHING_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace fscache
{

class Rng;

/** Abstract line-address -> bucket hash. */
class IndexHash
{
  public:
    virtual ~IndexHash() = default;

    /** Number of buckets this hash maps into. */
    std::uint64_t buckets() const { return buckets_; }

    /** Hash a line address into [0, buckets()). */
    virtual std::uint64_t index(Addr addr) const = 0;

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;

  protected:
    explicit IndexHash(std::uint64_t buckets);

    std::uint64_t buckets_;
};

/** Low-order-bits (modulo) indexing. */
class ModuloHash : public IndexHash
{
  public:
    explicit ModuloHash(std::uint64_t buckets);

    std::uint64_t index(Addr addr) const override;
    std::string name() const override { return "modulo"; }
};

/**
 * XOR-folding hash: XORs successive index-width chunks of the
 * address together. Deterministic (no seed), cheap in hardware.
 */
class XorFoldHash : public IndexHash
{
  public:
    explicit XorFoldHash(std::uint64_t buckets);

    std::uint64_t index(Addr addr) const override;
    std::string name() const override { return "xorfold"; }

  private:
    unsigned indexBits_;
};

/**
 * H3 universal hash: each output bit is the parity of the address
 * ANDed with a random 64-bit mask. Seeded; different seeds give
 * independent family members (used by the zcache ways).
 */
class H3Hash : public IndexHash
{
  public:
    H3Hash(std::uint64_t buckets, std::uint64_t seed);

    std::uint64_t index(Addr addr) const override;
    std::string name() const override { return "h3"; }

  private:
    unsigned indexBits_;
    std::vector<std::uint64_t> masks_;
};

/** Kinds of index hash, for factory-style configuration. */
enum class HashKind
{
    Modulo,
    XorFold,
    H3,
};

/** Parse "modulo" / "xorfold" / "h3" (fatal on anything else). */
HashKind parseHashKind(const std::string &name);

/** Build an index hash of the given kind. */
std::unique_ptr<IndexHash>
makeIndexHash(HashKind kind, std::uint64_t buckets, std::uint64_t seed);

} // namespace fscache

#endif // FSCACHE_COMMON_HASHING_HH
