#include "sim/timing_sim.hh"

#include <queue>

#include "common/cancellation.hh"
#include "common/log.hh"
#include "sim/partitioned_cache.hh"

namespace fscache
{

TimingSim::TimingSim(PartitionedCache &cache, const Workload &workload,
                     TimingConfig cfg)
    : cache_(cache), workload_(workload), cfg_(cfg),
      memory_(cfg.memory),
      perf_(workload.threadCount())
{
    fs_assert(cache.numPartitions() >= workload.threadCount(),
              "cache has %u partitions for %u threads",
              cache.numPartitions(), workload.threadCount());
    fs_assert(cfg_.warmupFraction >= 0.0 && cfg_.warmupFraction < 1.0,
              "warmup fraction must be in [0,1)");
}

void
TimingSim::run()
{
    const std::uint32_t n = workload_.threadCount();

    struct Event
    {
        Cycle time;
        std::uint32_t thread;

        bool
        operator>(const Event &o) const
        {
            // Deterministic order: time, then thread id.
            if (time != o.time)
                return time > o.time;
            return thread > o.thread;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        ready;
    std::vector<std::uint64_t> pos(n, 0);
    std::vector<std::uint64_t> warmupEnd(n);
    std::vector<Cycle> measureStart(n, 0);
    std::vector<std::uint64_t> instr(n, 0);
    std::uint32_t warm = 0;
    for (std::uint32_t t = 0; t < n; ++t) {
        warmupEnd[t] = static_cast<std::uint64_t>(
            cfg_.warmupFraction * workload_.thread(t).trace.size());
        if (warmupEnd[t] == 0)
            ++warm;
        ready.push({0, t});
    }
    bool statsReset = (warm == n);

    std::uint64_t events = 0;
    while (!ready.empty()) {
        // Watchdog check point; free unless a cell guard installed
        // a cancellation scope (see common/cancellation.hh).
        if ((++events & 0x1fff) == 0)
            pollCancellation();
        Event ev = ready.top();
        ready.pop();
        std::uint32_t t = ev.thread;
        const TraceBuffer &trace = workload_.thread(t).trace;
        if (pos[t] >= trace.size())
            continue;

        const Access &acc = trace[pos[t]];

        // Execute the instructions leading up to this access
        // (in-order core, 1 IPC between memory events).
        Cycle now = ev.time + acc.instrGap;

        AccessOutcome out =
            cache_.access(static_cast<PartId>(t), acc.addr,
                          acc.nextUse);
        Cycle lookup_done = now + cfg_.hitLatency;
        Cycle done = out.hit ? lookup_done
                             : memory_.request(lookup_done);

        bool measured = pos[t] >= warmupEnd[t];
        if (measured) {
            if (instr[t] == 0)
                measureStart[t] = ev.time;
            instr[t] += acc.instrGap;
            perf_[t].instructions += acc.instrGap;
            perf_[t].cycles = done - measureStart[t];
            ++perf_[t].accesses;
            if (!out.hit)
                ++perf_[t].misses;
        }

        ++pos[t];
        if (pos[t] == warmupEnd[t] && !statsReset) {
            if (++warm == n) {
                cache_.resetStats();
                statsReset = true;
            }
        }
        if (pos[t] < trace.size())
            ready.push({done, t});
    }
}

double
TimingSim::throughput() const
{
    double total = 0.0;
    for (const auto &p : perf_)
        total += p.ipc();
    return total;
}

} // namespace fscache
