/**
 * @file
 * Microbench for simulation throughput: runs a fixed grid of
 * independent simulation cells (build cache -> drive trace ->
 * collect misses) serially (1 job) and in parallel (FS_JOBS,
 * default hardware concurrency) and reports cells/sec for each,
 * plus the speedup. Also cross-checks that the per-cell miss
 * counts are identical between the two runs — the determinism
 * guarantee the figure benches rely on.
 *
 * The serial run doubles as the access-engine throughput probe:
 * accesses/sec on one thread is the metric scripts/bench_baseline.sh
 * gates against bench/BENCH_access_engine.json (see docs/PERF.md).
 * Set FS_BENCH_JSON=<path> to also write the measurements as JSON.
 *
 * Run on a multi-core host, expect near-linear scaling: the cells
 * are seconds of pure compute with no shared mutable state.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "bench_util.hh"
#include "runner/sweep_runner.hh"
#include "stats/json_writer.hh"

using namespace fscache;

namespace
{

constexpr std::size_t kCells = 24;

/** Per-cell result: misses for determinism, accesses for rates. */
struct CellCounts
{
    std::uint64_t misses = 0;
    std::uint64_t accesses = 0;

    bool
    operator==(const CellCounts &o) const
    {
        return misses == o.misses && accesses == o.accesses;
    }
};

CacheSpec
cellSpec(std::size_t cell)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = 4096 << (cell % 3);
    spec.array.ways = 16;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    spec.seed = 100 + cell;
    return spec;
}

Workload
cellWorkload(std::size_t cell)
{
    const char *benches[] = {"mcf", "omnetpp", "h264ref", "lbm"};
    return Workload::mix({benches[cell % 4], benches[(cell + 1) % 4]},
                         bench::scaled(60000), 9000 + cell);
}

/** One sweep cell: a private small cache driven by its own trace. */
CellCounts
runCell(std::size_t cell)
{
    CacheSpec spec = cellSpec(cell);
    auto cache = buildCache(spec);
    cache->setTargets({spec.array.numLines / 2,
                       spec.array.numLines / 2});

    Workload wl = cellWorkload(cell);
    runUntimed(*cache, wl, 0.2);
    CellCounts out;
    out.misses = cache->stats(0).misses + cache->stats(1).misses;
    out.accesses =
        cache->stats(0).accesses() + cache->stats(1).accesses();
    return out;
}

/**
 * Replay-only probe for the batched pipeline: the same cells, but
 * with trace generation hoisted out of the timed region so the
 * measurement isolates the access engine (generation is treap-bound
 * and its output byte-frozen by the goldens; in the combined cell
 * it is over half the wall time and would swamp any engine change).
 * Counts every issued access, warmup included — the engine replays
 * them all.
 */
double
timeBatchedReplay(std::uint64_t &issued_out)
{
    std::vector<Workload> workloads;
    workloads.reserve(kCells);
    std::uint64_t issued = 0;
    for (std::size_t cell = 0; cell < kCells; ++cell) {
        workloads.push_back(cellWorkload(cell));
        const Workload &wl = workloads.back();
        for (std::uint32_t t = 0; t < wl.threadCount(); ++t)
            issued += wl.thread(t).trace.size();
    }

    // Best of two passes: each pass rebuilds every cache and
    // replays identically (fresh state, deterministic), so the min
    // measures the engine rather than scheduler noise.
    double best = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t cell = 0; cell < kCells; ++cell) {
            CacheSpec spec = cellSpec(cell);
            auto cache = buildCache(spec);
            cache->setTargets({spec.array.numLines / 2,
                               spec.array.numLines / 2});
            runUntimed(*cache, workloads[cell], 0.2);
        }
        auto t1 = std::chrono::steady_clock::now();
        double secs =
            std::chrono::duration<double>(t1 - t0).count();
        if (pass == 0 || secs < best)
            best = secs;
    }
    issued_out = issued;
    return best;
}

double
timeSweep(unsigned jobs, std::vector<CellCounts> &counts)
{
    SweepRunner runner(jobs);
    auto t0 = std::chrono::steady_clock::now();
    counts = runner.map(kCells, runCell);
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    bench::banner("micro_sweep_throughput",
                  "simulated accesses/sec and SweepRunner cells/sec");

    const unsigned jobs = SweepRunner::defaultJobs();
    std::printf("cells: %zu   parallel jobs: %u (FS_JOBS)\n\n",
                kCells, jobs);

    std::vector<CellCounts> serial_counts;
    std::vector<CellCounts> parallel_counts;
    double t_serial = timeSweep(1, serial_counts);
    double t_parallel = timeSweep(jobs, parallel_counts);
    std::uint64_t batched_accesses = 0;
    double t_batched = timeBatchedReplay(batched_accesses);

    bool identical = serial_counts == parallel_counts;
    std::uint64_t total_accesses = 0;
    for (const CellCounts &c : serial_counts)
        total_accesses += c.accesses;
    double serial_aps = total_accesses / t_serial;
    double batched_aps = batched_accesses / t_batched;

    TablePrinter table({"mode", "jobs", "seconds", "cells/sec",
                        "accesses/sec"});
    table.addRow({"serial", "1", TablePrinter::num(t_serial, 2),
                  TablePrinter::num(kCells / t_serial, 2),
                  TablePrinter::num(serial_aps, 0)});
    table.addRow({"parallel", strprintf("%u", jobs),
                  TablePrinter::num(t_parallel, 2),
                  TablePrinter::num(kCells / t_parallel, 2),
                  TablePrinter::num(total_accesses / t_parallel, 0)});
    table.addRow({"batched-replay", "1",
                  TablePrinter::num(t_batched, 2),
                  TablePrinter::num(kCells / t_batched, 2),
                  TablePrinter::num(batched_aps, 0)});
    table.print(std::cout);

    std::printf("\nspeedup: %.2fx   per-cell results identical: "
                "%s\n", t_serial / t_parallel,
                identical ? "yes" : "NO (BUG)");

    // Machine-readable drop for scripts/bench_baseline.sh and CI.
    if (const char *path = std::getenv("FS_BENCH_JSON")) {
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "cannot write FS_BENCH_JSON=%s\n",
                         path);
            return 1;
        }
        JsonWriter json(os);
        json.field("bench", "micro_sweep_throughput");
        json.field("cells", std::uint64_t{kCells});
        json.field("scale", bench::scale());
        json.field("jobs", std::uint64_t{jobs});
        json.field("total_accesses", total_accesses);
        json.field("serial_seconds", t_serial);
        json.field("parallel_seconds", t_parallel);
        json.field("accesses_per_sec_serial", serial_aps);
        json.field("batched_accesses", batched_accesses);
        json.field("batched_seconds", t_batched);
        json.field("accesses_per_sec_batched", batched_aps);
        json.field("cells_per_sec_serial", kCells / t_serial);
        json.field("cells_per_sec_parallel", kCells / t_parallel);
        json.field("speedup", t_serial / t_parallel);
        json.field("identical", identical);
        json.finish();
        os << "\n";
    }
    return identical ? 0 : 1;
}
