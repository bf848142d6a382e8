/**
 * @file
 * Trace-driven multi-core timing simulation.
 *
 * Mirrors the paper's methodology (Section VII): traces carry the
 * instruction gaps between L2 accesses; network and memory latency
 * feed back into trace timing, delaying each thread's future L2
 * accesses. Cores are in-order (1 instruction per cycle between
 * cache events); thread i accesses partition i.
 */

#ifndef FSCACHE_SIM_TIMING_SIM_HH
#define FSCACHE_SIM_TIMING_SIM_HH

#include <cstdint>
#include <vector>

#include "sim/memory_model.hh"
#include "trace/workload.hh"

namespace fscache
{

class PartitionedCache;

/** Timing knobs (defaults per Table II). */
struct TimingConfig
{
    Cycle hitLatency = 12; ///< L2 access + avg NUCA hop
    MemoryConfig memory;

    /**
     * Fraction of each thread's trace used for warmup; cache stats
     * are reset and per-thread perf counting starts after it.
     */
    double warmupFraction = 0.2;
};

/** Measured-phase performance of one thread. */
struct ThreadPerf
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles
                      : 0.0;
    }
};

/** See file comment. */
class TimingSim
{
  public:
    /**
     * @param cache shared L2 (partition p <=> thread p; the cache
     *        must have at least workload.threadCount() partitions)
     * @param workload traces to run to completion
     */
    TimingSim(PartitionedCache &cache, const Workload &workload,
              TimingConfig cfg = TimingConfig{});

    /** Run every thread's full trace. */
    void run();

    const ThreadPerf &perf(std::uint32_t thread) const
    { return perf_[thread]; }

    const MemoryModel &memory() const { return memory_; }

    /** Sum of measured-phase IPCs (system throughput metric). */
    double throughput() const;

  private:
    PartitionedCache &cache_;
    const Workload &workload_;
    TimingConfig cfg_;
    MemoryModel memory_;
    std::vector<ThreadPerf> perf_;
};

} // namespace fscache

#endif // FSCACHE_SIM_TIMING_SIM_HH
