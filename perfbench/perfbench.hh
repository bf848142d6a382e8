/**
 * @file
 * Shared declarations of the repository benchmark binary
 * (fs_perfbench). It links fs_core and measures the
 * simulator from outside, by timing calls into each layer's public
 * functions; see perfbench/README.md for the workloads, the metrics
 * and the layer -> end-to-end map.
 *
 * Time here is always host time (std::chrono::steady_clock, which is
 * CLOCK_MONOTONIC on Linux and therefore comparable across the farm
 * worker processes of one host). Simulated time only ever appears
 * inside the cell digests and the memory-queueing figure.
 */

#ifndef FSCACHE_PERFBENCH_PERFBENCH_HH
#define FSCACHE_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fscache.hh"
#include "runner/proc_executor.hh"

namespace fspb
{

using namespace fscache;

/** steady_clock now, in ns. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
nsToS(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Multiplies every workload's access and cell counts. */
    double scale = 1.0;
    /** Expected-digest table (see digest.hh). */
    std::string expectPath;
    /** Scratch directory for the loopback agent's files. */
    std::string workDir = ".bench_build/run";
    /** Where the traced run writes its spans ("" = none). */
    std::string traceOut;
    /** Source revision, recorded in the provenance block. */
    std::string revision = "unknown";
    /** Print one round's digest line instead of measuring. */
    bool record = false;
};

// ---------------------------------------------------------------
// Cells

/** One timed phase of a cell, recorded only in traced runs. */
struct Phase
{
    std::string name; ///< "<layer>.<call>", e.g. "trace.generate"
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/**
 * What one sweep cell reports. Travels through the farm codec, so
 * process and net cells report exactly what thread cells do.
 */
struct CellResult
{
    /** Fold of the cell's simulated statistics (digest.hh). */
    std::uint64_t digest = 0;
    /** Simulated L2 accesses issued, warm-up included. */
    std::uint64_t accesses = 0;
    /** Host ns spent building inputs: generation, next-use
     *  annotation and buildCache. */
    std::uint64_t setupNs = 0;
    /** Absolute steady-clock bounds of the cell function. */
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Execution lane (process id and thread), traced runs only. */
    std::uint64_t lane = 0;
    std::vector<Phase> phases;
};

std::string encodeCell(const CellResult &r);
CellResult decodeCell(const std::string &payload);

/** Records the phases of one cell when tracing is on. */
class PhaseClock
{
  public:
    PhaseClock(CellResult &out, bool traced)
        : out_(out), traced_(traced), last_(nowNs())
    {
        out_.startNs = last_;
    }

    /** Close the phase that began at the previous mark. */
    std::uint64_t
    mark(const char *name)
    {
        std::uint64_t t = nowNs();
        if (traced_)
            out_.phases.push_back({name, last_, t});
        std::uint64_t dt = t - last_;
        last_ = t;
        return dt;
    }

  private:
    CellResult &out_;
    bool traced_;
    std::uint64_t last_;
};

// ---------------------------------------------------------------
// Workloads (workloads.cc)

/** Inputs the layer probes replay (probes.cc). */
struct ProbeInput
{
    /** Regenerate the workload's probe trace (timed by the probe). */
    std::function<Workload()> generate;
    /** Cache geometry and partition targets of the probe caches. */
    ArrayConfig array;
    std::uint32_t parts = 1;
    std::vector<std::uint32_t> targets;
};

/** One benchmark workload: a sweep of cells plus its checks. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    virtual const char *name() const = 0;
    /** Executor of the measured sweep. */
    virtual ExecutorKind executor() const
    { return ExecutorKind::Thread; }
    virtual std::size_t cells() const = 0;
    /** Sweeps a run makes at least, so that the tail percentile
     *  (fixed per workload from cells() x minRounds()) has ten or
     *  more cells beyond it. */
    virtual std::size_t minRounds() const { return 1; }
    /** Sweep identity (fingerprinted by the farm). */
    virtual std::string configKey() const = 0;
    /**
     * Shared per-sweep inputs built before any cell runs (the
     * replay_sweep mix, the timed_qos traces). Runs in every
     * process that executes cells. Appends traced phases.
     * @return host ns spent
     */
    virtual std::uint64_t prepare(std::vector<Phase> &phases,
                                  bool traced)
    {
        (void)phases;
        (void)traced;
        return 0;
    }
    virtual CellResult runCell(std::size_t cell, bool traced) = 0;
    /**
     * Recompute a cell's digest through a different path than the
     * sweep (the per-access API for untimed cells), for seeds with
     * no recorded digest.
     */
    virtual std::uint64_t referenceDigest(std::size_t cell) = 0;
    virtual ProbeInput probeInput() const = 0;
};

std::unique_ptr<BenchWorkload> makeWorkload(const std::string &name,
                                            std::uint64_t seed,
                                            double scale);

/** Accesses over every thread of a workload. */
std::uint64_t workloadAccesses(const Workload &wl);

// ---------------------------------------------------------------
// Digests (digest.cc)

/** FNV-1a fold of 64-bit words. */
class Digest
{
  public:
    Digest &u64(std::uint64_t v);
    Digest &f64(double v); ///< by bit pattern
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Fold hits, misses, evictions and AEF bits of every partition,
 *  and, when timed, each thread's IPC bits and the memory model's
 *  mean queueing delay. */
std::uint64_t cacheDigest(const PartitionedCache &cache,
                          const TimingSim *timing = nullptr,
                          std::uint32_t threads = 0);

/** Expected digests, keyed "<workload> <scale> <seed>". */
std::map<std::string, std::uint64_t>
loadExpected(const std::string &path);
std::string expectKey(const std::string &workload, double scale,
                      std::uint64_t seed);

// ---------------------------------------------------------------
// Spans (spans.cc)

/** One recorded span. parent == 0 marks a root. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t cell = -1;
};

/** In-memory span store; written out once, at exit. */
class SpanLog
{
  public:
    std::uint32_t add(const std::string &name, std::uint64_t start,
                      std::uint64_t end, std::uint32_t parent,
                      std::int64_t cell);
    /** Set the end of a span opened before its children. */
    void close(std::uint32_t id, std::uint64_t end)
    { spans_[id - 1].endNs = end; }
    const std::vector<Span> &spans() const { return spans_; }
    /** Self time (duration minus the union of its children's
     *  intervals) summed per layer, the name's prefix before '.'.
     *  Only spans under the given roots count. */
    std::map<std::string, double>
    selfSecondsByLayer(const std::vector<std::uint32_t> &roots) const;

  private:
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------
// Layer probes (probes.cc)

/** Per-layer metrics, name -> value. */
using MetricMap = std::map<std::string, double>;

/** Time each layer's public calls on the workload's probe input,
 *  recording spans under `root`. */
void runProbes(const BenchWorkload &wl, SpanLog &log,
               std::uint32_t root, MetricMap &out);

// ---------------------------------------------------------------
// Provenance (provenance.cc)

/** JSON object: revision, compiler and flags, build type, SIMD
 *  backend, executor, FS_* environment, CPU, nproc, host. */
std::string provenanceJson(const Options &opt,
                           const std::string &executors);

/** s as a JSON string literal. */
std::string jsonString(const std::string &s);

/** Peak resident set of this process or its largest child, MiB. */
double peakRssMb();

/** min(online CPUs, 4), at least 1. */
unsigned defaultWorkers();

} // namespace fspb

#endif // FSCACHE_PERFBENCH_PERFBENCH_HH
