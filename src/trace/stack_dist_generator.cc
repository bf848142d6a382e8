#include "trace/stack_dist_generator.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace fscache
{

DepthDist
DepthDist::uniform(std::uint64_t lo, std::uint64_t hi)
{
    return {Kind::Uniform, lo, hi};
}

DepthDist
DepthDist::logUniform(std::uint64_t lo, std::uint64_t hi)
{
    return {Kind::LogUniform, lo, hi};
}

DepthDist
DepthDist::fixed(std::uint64_t d)
{
    return {Kind::Fixed, d, d};
}

std::uint64_t
DepthDist::sample(Rng &rng, std::uint64_t cap) const
{
    fs_assert(cap >= 1, "depth cap must be >= 1");
    std::uint64_t d;
    switch (kind) {
      case Kind::Uniform:
        d = rng.range(minDepth, maxDepth);
        break;
      case Kind::LogUniform: {
        // Draw uniformly in log space: d = min * (max/min)^U.
        if (logForMin_ != minDepth || logForMax_ != maxDepth) {
            logMin_ = std::log(static_cast<double>(minDepth));
            logMax_ = std::log(static_cast<double>(maxDepth));
            logForMin_ = minDepth;
            logForMax_ = maxDepth;
        }
        d = static_cast<std::uint64_t>(std::exp(
            logMin_ + (logMax_ - logMin_) * rng.uniform()));
        break;
      }
      case Kind::Fixed:
      default:
        d = minDepth;
        break;
    }
    if (d < 1)
        d = 1;
    if (d > cap)
        d = cap;
    return d;
}

namespace
{

/** Stack entries the constructor pre-populates. */
std::uint64_t
prewarmCount(const StackDistConfig &cfg)
{
    return cfg.prewarm ? std::min(cfg.depth.maxDepth, cfg.maxResident)
                       : 0;
}

} // namespace

StackDistGenerator::StackDistGenerator(const StackDistConfig &cfg,
                                       Addr base_addr, Rng rng)
    : cfg_(cfg), baseAddr_(base_addr), rng_(rng),
      gap_(cfg.meanInstrGap), stack_(prewarmCount(cfg))
{
    fs_assert(cfg_.pNew >= 0.0 && cfg_.pNew <= 1.0, "bad pNew");
    fs_assert(cfg_.depth.minDepth >= 1 &&
                  cfg_.depth.minDepth <= cfg_.depth.maxDepth,
              "bad depth range");
    fs_assert(cfg_.maxResident >= 2, "need at least two residents");

    // One draw is discarded here. Every recorded trace and golden
    // was produced with it in the stream; dropping it would shift
    // every later draw.
    rng_();

    // Oldest entries first, so depth d reaches address warm - d
    // initially. The axis is sized from this count, not from
    // maxResident, and grows only if the stack does.
    std::uint64_t warm = prewarmCount(cfg_);
    for (std::uint64_t i = 0; i < warm; ++i)
        stack_.append(static_cast<std::uint32_t>(nextNewAddr_++));
    markAll();
}

void
StackDistGenerator::markAll()
{
    if (onStack_.capacity() != stack_.capacity())
        onStack_.reset(stack_.capacity());
    onStack_.fillBelow(stack_.end());
}

void
StackDistGenerator::push(std::uint32_t local)
{
    if (stack_.full()) {
        stack_.compact();
        markAll();
    }
    onStack_.mark(stack_.append(local));
}

void
StackDistGenerator::pop(std::uint32_t stamp)
{
    onStack_.unmark(stamp);
    stack_.vacate(stamp);
}

Access
StackDistGenerator::next()
{
    std::uint32_t local = 0;
    std::uint32_t size = onStack_.total();
    if (size == 0 || rng_.chance(cfg_.pNew)) {
        fs_assert(nextNewAddr_ < kNoAddr,
                  "stack-distance generator ran out of addresses");
        local = static_cast<std::uint32_t>(nextNewAddr_++);
        push(local);
        if (onStack_.total() > cfg_.maxResident)
            pop(onStack_.lowest()); // forget the least recent
    } else {
        // Depth d = 1 is the most recently used entry, i.e. the
        // (size - d)-th oldest mark. Moving it to the top leaves the
        // size unchanged, so the maxResident bound needs no check.
        std::uint64_t d = cfg_.depth.sample(rng_, size);
        std::uint32_t pos =
            onStack_.selectKth(static_cast<std::uint32_t>(size - d));
        local = stack_.at(pos);
        pop(pos);
        push(local);
    }

    Access acc;
    acc.addr = baseAddr_ + local;
    acc.instrGap = gap_.sample(rng_);
    return acc;
}

} // namespace fscache
