/**
 * @file
 * LRU-stack-distance trace generator.
 *
 * The generator maintains an exact LRU stack of previously touched
 * line addresses on a RecencyIndex stamp axis
 * (common/recency_index.hh): local addresses in touch order, plus
 * one two-level mark index (common/fenwick.hh: a mark bit per stamp,
 * a Fenwick tree over the per-64-stamp counts) of the stamps still on
 * the stack. Re-referencing depth d selects the (size - d)-th oldest
 * mark: a descent of the word tree, log2(capacity / 64) levels, then
 * one in-word select. The prewarm and every compaction re-mark the
 * stack with whole-word stores. Each access either touches a brand-new
 * address (probability pNew, modeling compulsory misses / footprint
 * growth) or re-references the address at a stack depth drawn from
 * a configurable distribution.
 *
 * Stack-distance structure is exactly what determines an
 * application's miss curve and associativity sensitivity, which is
 * why these generators can stand in for the paper's SPEC traces
 * (see DESIGN.md Section 1).
 */

#ifndef FSCACHE_TRACE_STACK_DIST_GENERATOR_HH
#define FSCACHE_TRACE_STACK_DIST_GENERATOR_HH

#include <cstdint>
#include <string>

#include "common/fenwick.hh"
#include "common/random.hh"
#include "common/recency_index.hh"
#include "trace/instr_gap.hh"
#include "trace/trace_source.hh"

namespace fscache
{

/** How re-reference stack depths are drawn. */
struct DepthDist
{
    enum class Kind
    {
        Uniform,    ///< uniform over [minDepth, maxDepth]
        LogUniform, ///< log2-uniform over [minDepth, maxDepth]
        Fixed,      ///< always minDepth
    };

    Kind kind = Kind::LogUniform;
    std::uint64_t minDepth = 1;
    std::uint64_t maxDepth = 1;

    static DepthDist uniform(std::uint64_t lo, std::uint64_t hi);
    static DepthDist logUniform(std::uint64_t lo, std::uint64_t hi);
    static DepthDist fixed(std::uint64_t d);

    /** Draw a depth, clamped to [1, cap]. */
    std::uint64_t sample(Rng &rng, std::uint64_t cap) const;

    /**
     * Internal: log(minDepth)/log(maxDepth), computed on first
     * LogUniform draw and keyed on the depths they were taken from
     * (the bounds are settable directly, so a plain "computed"
     * flag could go stale; public only to keep the struct an
     * aggregate). Two integer compares per draw replace two
     * std::log calls; the cached values are bit-identical to
     * recomputing them.
     */
    mutable std::uint64_t logForMin_ = 0;
    mutable std::uint64_t logForMax_ = 0;
    mutable double logMin_ = 0.0;
    mutable double logMax_ = 0.0;
};

/** Configuration for StackDistGenerator. */
struct StackDistConfig
{
    /** Probability an access touches a new (never-seen) address. */
    double pNew = 0.05;

    /** Re-reference depth distribution. */
    DepthDist depth = DepthDist::logUniform(1, 1 << 14);

    /**
     * Maximum number of resident addresses; the least recent beyond
     * this are forgotten (bounds generator memory).
     */
    std::uint64_t maxResident = 1ull << 21;

    /** Mean instructions between accesses. */
    std::uint32_t meanInstrGap = 50;

    /**
     * Pre-populate the stack with maxDepth addresses so the full
     * working set exists from the first access (the application has
     * been running before the trace window starts). Without it,
     * short traces under-represent deep reuse.
     */
    bool prewarm = true;
};

/** See file comment. */
class StackDistGenerator : public TraceSource
{
  public:
    /**
     * @param cfg generator knobs
     * @param base_addr all emitted addresses are offset by this
     * @param rng seeded stream owned by the caller's fork
     */
    StackDistGenerator(const StackDistConfig &cfg, Addr base_addr,
                       Rng rng);

    Access next() override;

    /** Bulk pull with the virtual dispatch hoisted out of the loop
     *  (this generator dominates trace-generation time). */
    void
    fillBatch(Access *dst, std::uint64_t n) override
    {
        for (std::uint64_t i = 0; i < n; ++i)
            dst[i] = StackDistGenerator::next();
    }

    std::string name() const override { return "stackdist"; }

    /** Number of currently resident addresses (for tests). */
    std::uint64_t resident() const { return onStack_.total(); }

  private:
    /** Axis payload of a stamp no longer on the stack. */
    static constexpr std::uint32_t kNoAddr = 0xffffffffu;

    /** Push `local` as the most recent entry. */
    void push(std::uint32_t local);

    /** Take the entry at `stamp` off the stack. */
    void pop(std::uint32_t stamp);

    /** Mark every stamp below stack_.end(), whole words at a time
     *  (right after the prewarm and after each compaction, the stack
     *  is exactly those). */
    void markAll();

    StackDistConfig cfg_;
    Addr baseAddr_;
    Rng rng_;
    InstrGapSampler gap_;

    /** Local address at each touch stamp, oldest first. Local
     *  addresses are < 2^32 - 1 (kNoAddr). */
    RecencyIndex<std::uint32_t, kNoAddr> stack_;
    /** Marks the stamps whose entry is still on the stack. */
    FenwickTree onStack_;
    Addr nextNewAddr_ = 0;
};

} // namespace fscache

#endif // FSCACHE_TRACE_STACK_DIST_GENERATOR_HH
