/**
 * @file
 * fs_perfbench: the repository benchmark binary.
 *
 *   fs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                [--scale <x>] [--expect <file>] [--work-dir <dir>]
 *                [--trace-out <file>] [--revision <rev>] [--record]
 *
 * A run repeats the workload's sweep (a closed loop: J workers, each
 * taking the next cell when it finishes its last) until --seconds
 * have passed, checks every cell's digest, and prints the end-to-end
 * metrics; the last stdout line is one JSON object. With --trace 1
 * it alternates untraced and traced sweeps, repeats one sweep on
 * each other executor, runs the inner-layer probes, prints the
 * per-layer metrics instead and writes the spans to --trace-out.
 * --record prints the workload's sweep digest for the expected
 * table instead of measuring.
 *
 * perfbench/run.py builds this binary and is the command to use.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/errors.hh"
#include "common/log.hh"
#include "perfbench.hh"
#include "runner/sweep_runner.hh"

namespace fspb
{

namespace
{

/** Set in the environment of every sweep: farm workers inherit it
 *  and record cell phases only when it is "1". */
constexpr const char *kTraceCellsEnv = "PERFBENCH_TRACE_CELLS";

const char *
executorName(ExecutorKind k)
{
    switch (k) {
    case ExecutorKind::Thread:
        return "thread";
    case ExecutorKind::Process:
        return "process";
    case ExecutorKind::Net:
        return "net";
    }
    return "?";
}

std::uint64_t
laneId()
{
    std::uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return (static_cast<std::uint64_t>(::getpid()) << 32) ^
           (tid & 0xffffffffu);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile, p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** The highest of these percentiles with at least ten samples
 *  beyond it. */
double
tailPercentile(std::size_t samples)
{
    double best = 50.0;
    for (double p : {50.0, 75.0, 90.0, 95.0, 99.0})
        if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0)
            best = p;
    return best;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw FsError("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--scale")
            o.scale = std::stod(value());
        else if (a == "--expect")
            o.expectPath = value();
        else if (a == "--work-dir")
            o.workDir = value();
        else if (a == "--trace-out")
            o.traceOut = value();
        else if (a == "--revision")
            o.revision = value();
        else if (a == "--record")
            o.record = true;
        else
            throw FsError("unknown argument: " + a);
    }
    if (o.workload.empty())
        throw FsError("--workload is required");
    if (!(o.seconds > 0.0) || !(o.scale > 0.0))
        throw FsError("--seconds and --scale must be positive");
    return o;
}

/** One sweep of the workload's cells on one executor. */
struct Round
{
    ExecutorKind executor = ExecutorKind::Thread;
    bool traced = false;
    std::uint64_t startNs = 0; ///< before prepare()
    std::uint64_t sweepStartNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t prepareNs = 0;
    std::vector<Phase> prepPhases;
    SweepReport<CellResult> report;

    double wallS() const { return nsToS(endNs - startNs); }
    double sweepS() const { return nsToS(endNs - sweepStartNs); }
};

/**
 * A loopback net-farm agent: this binary re-exec'd with
 * --fs-agent=0, serving one sweep on its own process farm. Killed
 * and reaped on destruction if it has not exited by itself.
 */
class LoopbackAgent
{
  public:
    LoopbackAgent(const std::vector<std::string> &args,
                  const std::string &work_dir, unsigned workers)
    {
        portFile_ = work_dir + "/agent.port";
        ::unlink(portFile_.c_str());
        std::string log = work_dir + "/agent.log";
        std::vector<std::string> argv_s{"/proc/self/exe",
                                        "--fs-agent=0"};
        argv_s.insert(argv_s.end(), args.begin() + 1, args.end());
        pid_ = ::fork();
        if (pid_ < 0)
            throw FsError("fork failed for the loopback agent");
        if (pid_ == 0) {
            ::unsetenv("FS_EXECUTOR");
            ::unsetenv("FS_HOSTS");
            ::setenv("FS_AGENT_PORT_FILE", portFile_.c_str(), 1);
            ::setenv("FS_WORKERS", std::to_string(workers).c_str(), 1);
            int devnull = ::open("/dev/null", O_WRONLY);
            int logfd = ::open(log.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (devnull >= 0)
                ::dup2(devnull, 1);
            if (logfd >= 0)
                ::dup2(logfd, 2);
            std::vector<char *> cargv;
            for (std::string &s : argv_s)
                cargv.push_back(s.data());
            cargv.push_back(nullptr);
            ::execv(cargv[0], cargv.data());
            ::_exit(127);
        }
    }

    LoopbackAgent(const LoopbackAgent &) = delete;
    LoopbackAgent &operator=(const LoopbackAgent &) = delete;

    ~LoopbackAgent() { reap(0); }

    /** Wait for the agent to publish its port (it prepares the
     *  sweep's inputs first). */
    std::uint16_t
    waitPort(double timeout_s)
    {
        std::uint64_t deadline =
            nowNs() + static_cast<std::uint64_t>(timeout_s * 1e9);
        while (nowNs() < deadline) {
            std::ifstream in(portFile_);
            unsigned port = 0;
            if (in >> port && port > 0)
                return static_cast<std::uint16_t>(port);
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw FsError("loopback agent exited before serving");
            }
            ::usleep(5000);
        }
        throw FsError("loopback agent never published a port");
    }

    /** Wait up to `grace_s` for a clean exit, then kill and reap. */
    void
    reap(double grace_s)
    {
        if (pid_ <= 0)
            return;
        std::uint64_t deadline =
            nowNs() + static_cast<std::uint64_t>(grace_s * 1e9);
        int status = 0;
        while (nowNs() < deadline) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            ::usleep(5000);
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
    std::string portFile_;
};

class Bench
{
  public:
    Bench(Options opt, std::vector<std::string> args)
        : opt_(std::move(opt)), args_(std::move(args)),
          wl_(makeWorkload(opt_.workload, opt_.seed, opt_.scale)),
          jobs_(defaultWorkers())
    {
        if (wl_ == nullptr)
            throw FsError("unknown workload: " + opt_.workload);
        ::setenv("FS_JOBS", std::to_string(jobs_).c_str(), 1);
        ::setenv("FS_WORKERS", std::to_string(jobs_).c_str(), 1);
        // Cells are never resumed from a journal here: a restored
        // cell would be measured as free.
        ::unsetenv("FS_CHECKPOINT_DIR");
    }

    /** Farm worker or agent: serve the sweep; never returns. */
    [[noreturn]] void
    serve()
    {
        const char *t = std::getenv(kTraceCellsEnv);
        bool traced = t != nullptr && std::string(t) == "1";
        std::vector<Phase> ignored;
        wl_->prepare(ignored, false);
        sweep(traced);
        std::exit(0); // unreachable: the farm exits the process
    }

    int
    record()
    {
        Round r = runRound(ExecutorKind::Thread, false);
        Digest d;
        for (auto &o : r.report.cells) {
            if (!o.ok())
                throw FsError("cell failed while recording: " + o.error);
            d.u64(o.value->digest);
        }
        // Record nothing the second path disagrees with.
        const std::size_t n = wl_->cells();
        for (std::size_t i : {std::size_t{0}, n - 1})
            if (wl_->referenceDigest(i) != r.report.cells[i].value->digest)
                throw FsError(strprintf(
                    "cell %zu disagrees with its reference path", i));
        std::printf("%s %s %llu %016llx\n", wl_->name(),
                    scaleText().c_str(),
                    static_cast<unsigned long long>(opt_.seed),
                    static_cast<unsigned long long>(d.value()));
        return 0;
    }

    int
    measure()
    {
        const std::uint64_t t0 = nowNs();
        const auto budget = static_cast<std::uint64_t>(opt_.seconds * 1e9);
        const ExecutorKind main_exec = wl_->executor();
        std::vector<Round> rounds;
        // Closed loop: sweep after sweep until the time is up and the
        // tail percentile has at least ten cells beyond it.
        const std::size_t min_rounds =
            std::max<std::size_t>(wl_->minRounds(), opt_.trace ? 2 : 1);
        while (rounds.size() < min_rounds || nowNs() - t0 < budget) {
            bool traced = opt_.trace && rounds.size() % 2 == 1;
            rounds.push_back(runRound(main_exec, traced));
        }
        const std::size_t measured = rounds.size();

        MetricMap layer;
        SpanLog log;
        std::vector<std::uint32_t> selfRoots;
        if (opt_.trace) {
            for (ExecutorKind k : {ExecutorKind::Thread,
                                   ExecutorKind::Process,
                                   ExecutorKind::Net})
                if (k != main_exec)
                    rounds.push_back(runRound(k, true));
            for (const Round &r : rounds)
                if (r.traced) {
                    std::uint32_t id = addRoundSpans(log, r);
                    if (r.executor == main_exec)
                        selfRoots.push_back(id);
                }
            std::uint64_t p0 = nowNs();
            std::uint32_t probeRoot = log.add("probe", p0, p0, 0, -1);
            runProbes(*wl_, log, probeRoot, layer);
            log.close(probeRoot, nowNs());
        }

        // ----- correctness
        Check check = checkRounds(rounds);

        // ----- report
        std::string executors = executorName(main_exec);
        if (opt_.trace)
            executors = "thread,process,net";
        std::string prov = provenanceJson(opt_, executors);
        std::printf("workload: %s  seed: %llu  scale: %s  workers: %u "
                    "(closed loop)\n",
                    wl_->name(),
                    static_cast<unsigned long long>(opt_.seed),
                    scaleText().c_str(), jobs_);
        std::printf("provenance: %s\n", prov.c_str());
        std::printf("digest_check: %s\n", check.how.c_str());

        std::vector<std::pair<std::string, std::pair<double, std::string>>>
            metrics;
        if (!opt_.trace) {
            endToEnd(rounds, metrics);
        } else {
            runnerMetrics(rounds, layer);
            auto self = log.selfSecondsByLayer(selfRoots);
            for (const char *l : {"runner", "trace", "cache", "sim"})
                layer[std::string("self_s.") + l] =
                    self[l] / static_cast<double>(selfRoots.size());
            std::vector<double> plain, traced;
            for (std::size_t i = 0; i < measured; ++i)
                (rounds[i].traced ? traced : plain)
                    .push_back(rounds[i].wallS());
            layer["tracing.overhead_ratio"] = median(traced) / median(plain);
            for (const auto &[name, v] : layer)
                metrics.push_back({name, {v, unitOf(name)}});
            writeTrace(log, selfRoots, rounds, layer, prov);
        }

        std::printf("attempted: %zu  failed: %zu  failed_ratio: %.6f\n",
                    check.attempted, check.failed,
                    check.attempted ? static_cast<double>(check.failed) /
                                          check.attempted
                                    : 0.0);
        for (const auto &[name, vu] : metrics)
            std::printf("%-40s %.6g %s\n", name.c_str(), vu.first,
                        vu.second.c_str());

        std::ostringstream js;
        js.precision(17);
        js << "{\"correct\": " << (check.failed == 0 ? "true" : "false")
           << ", \"attempted\": " << check.attempted
           << ", \"failed\": " << check.failed << ", \"metrics\": {";
        bool first = true;
        for (const auto &[name, vu] : metrics) {
            if (!std::isfinite(vu.first))
                throw FsError("metric " + name + " is not finite");
            js << (first ? "" : ", ") << jsonString(name)
               << ": {\"value\": " << vu.first
               << ", \"unit\": " << jsonString(vu.second) << "}";
            first = false;
        }
        js << "}}";
        std::printf("%s\n", js.str().c_str());
        std::fflush(stdout);
        return 0;
    }

  private:
    struct Check
    {
        std::size_t attempted = 0;
        std::size_t failed = 0;
        std::string how;
    };

    std::string
    scaleText() const
    {
        std::ostringstream os;
        os << opt_.scale;
        return os.str();
    }

    /** The farm-capable sweep over every cell. */
    SweepReport<CellResult>
    sweep(bool traced)
    {
        SweepRunner runner(jobs_);
        return runner.mapResilientCheckpointed(
            wl_->cells(),
            [this, traced](std::size_t i) {
                CellResult r = wl_->runCell(i, traced);
                if (traced)
                    r.lane = laneId();
                r.endNs = nowNs();
                return r;
            },
            "perfbench", wl_->configKey(), encodeCell, decodeCell);
    }

    Round
    runRound(ExecutorKind exec, bool traced)
    {
        Round r;
        r.executor = exec;
        r.traced = traced;
        ::setenv(kTraceCellsEnv, traced ? "1" : "0", 1);
        r.startNs = nowNs();
        r.prepareNs = wl_->prepare(r.prepPhases, traced);
        std::unique_ptr<LoopbackAgent> agent;
        if (exec == ExecutorKind::Net) {
            ::mkdir(opt_.workDir.c_str(), 0755);
            agent = std::make_unique<LoopbackAgent>(args_, opt_.workDir,
                                                    jobs_);
            std::uint16_t port = agent->waitPort(60.0);
            ::setenv("FS_HOSTS",
                     strprintf("127.0.0.1:%u", port).c_str(), 1);
            // One running and one queued cell per agent worker.
            ::setenv("FS_LEASE_WINDOW",
                     std::to_string(2 * jobs_).c_str(), 1);
        }
        ::setenv("FS_EXECUTOR", executorName(exec), 1);
        r.sweepStartNs = nowNs();
        r.report = sweep(traced);
        r.endNs = nowNs();
        std::vector<ManifestEntry> failed = r.report.failures();
        if (!failed.empty())
            std::fprintf(stderr, "fs_perfbench: %s sweep on %s: %s",
                         wl_->name(), executorName(exec),
                         renderManifest(failed).c_str());
        ::unsetenv("FS_EXECUTOR");
        ::unsetenv("FS_HOSTS");
        ::unsetenv("FS_LEASE_WINDOW");
        if (agent)
            agent->reap(10.0);
        return r;
    }

    /**
     * Every cell must match the first sweep's digest for that cell;
     * the sweep digest must match the recorded one when the table
     * has this (workload, scale, seed), and otherwise the reference
     * path (and, for farm_dispatch, a thread-executor sweep) must
     * agree cell by cell. A failing cell counts once per sweep.
     */
    Check
    checkRounds(const std::vector<Round> &rounds)
    {
        Check c;
        const std::size_t n = wl_->cells();
        std::vector<std::uint64_t> base(n, 0);
        std::vector<char> bad(n, 0);
        const Round &first = rounds.front();
        for (std::size_t i = 0; i < n; ++i) {
            if (first.report.cells[i].ok())
                base[i] = first.report.cells[i].value->digest;
            else
                bad[i] = 1;
        }
        Digest sweep;
        for (std::uint64_t d : base)
            sweep.u64(d);

        auto expected = loadExpected(opt_.expectPath);
        auto it = expected.find(
            expectKey(wl_->name(), opt_.scale, opt_.seed));
        bool all_bad = false;
        if (it != expected.end()) {
            all_bad = it->second != sweep.value();
            c.how = all_bad ? "recorded-MISMATCH" : "recorded-match";
        } else {
            c.how = "not-recorded, reference-checked";
        }
        if (wl_->executor() != ExecutorKind::Thread) {
            // Merged farm results against the thread executor.
            Round t = runRound(ExecutorKind::Thread, false);
            for (std::size_t i = 0; i < n; ++i) {
                const auto &o = t.report.cells[i];
                if (!o.ok() || o.value->digest != base[i])
                    bad[i] = 1;
            }
        }
        if (it == expected.end())
            for (std::size_t i : {std::size_t{0}, n - 1})
                if (wl_->referenceDigest(i) != base[i])
                    bad[i] = 1;

        for (const Round &r : rounds) {
            for (std::size_t i = 0; i < n; ++i) {
                ++c.attempted;
                const auto &o = r.report.cells[i];
                if (all_bad || bad[i] || !o.ok() ||
                    o.value->digest != base[i])
                    ++c.failed;
            }
        }
        return c;
    }

    void
    endToEnd(const std::vector<Round> &rounds,
             std::vector<std::pair<std::string,
                                   std::pair<double, std::string>>> &m)
    {
        // Rates and set-up time are medians over the sweeps, so one
        // disturbed sweep does not move them.
        std::size_t cells = 0;
        std::vector<double> access_rate, cell_rate, setup, cell_s;
        for (const Round &r : rounds) {
            std::uint64_t accesses = 0, s = r.prepareNs;
            for (const auto &o : r.report.cells) {
                ++cells;
                if (!o.ok())
                    continue;
                accesses += o.value->accesses;
                s += o.value->setupNs;
                cell_s.push_back(
                    nsToS(o.value->endNs - o.value->startNs));
            }
            access_rate.push_back(static_cast<double>(accesses) /
                                  r.wallS());
            cell_rate.push_back(
                static_cast<double>(r.report.cells.size()) / r.wallS());
            setup.push_back(nsToS(s));
        }
        const double wall =
            nsToS(rounds.back().endNs - rounds.front().startNs);
        const double tail =
            tailPercentile(wl_->cells() * wl_->minRounds());
        std::printf("rounds: %zu  cells: %zu  wall_s: %.3f  "
                    "cell_tail_s is p%g of %zu cells\nsweep_walls_s:",
                    rounds.size(), cells, wall, tail, cell_s.size());
        for (const Round &r : rounds)
            std::printf(" %.3f", r.wallS());
        std::printf("\n");
        m.push_back({"sim_accesses_per_s", {median(access_rate), "1/s"}});
        m.push_back({"cells_per_s", {median(cell_rate), "1/s"}});
        m.push_back({"setup_s", {median(setup), "s"}});
        m.push_back({"cell_p50_s", {percentile(cell_s, 50.0), "s"}});
        m.push_back({"cell_tail_s", {percentile(cell_s, tail), "s"}});
        m.push_back({"peak_rss_mb", {peakRssMb(), "MiB"}});
    }

    /** runner.* per executor, from every sweep run on it. */
    void
    runnerMetrics(const std::vector<Round> &rounds, MetricMap &out)
    {
        for (ExecutorKind k : {ExecutorKind::Thread,
                               ExecutorKind::Process,
                               ExecutorKind::Net}) {
            double busy = 0, wait = 0, capacity = 0;
            std::size_t cells = 0, attempts = 0, sweeps = 0;
            for (const Round &r : rounds) {
                if (r.executor != k)
                    continue;
                ++sweeps;
                capacity += r.sweepS() * jobs_;
                for (const auto &o : r.report.cells) {
                    ++cells;
                    attempts += o.attempts;
                    if (!o.ok())
                        continue;
                    busy += nsToS(o.value->endNs - o.value->startNs);
                    wait += nsToS(o.value->startNs - r.sweepStartNs);
                }
            }
            if (sweeps == 0)
                continue;
            std::string sfx = std::string(".") + executorName(k);
            out["runner.cell_busy_s" + sfx] = busy / sweeps;
            out["runner.cell_wait_s" + sfx] = wait / sweeps;
            out["runner.dispatch_ms_per_cell" + sfx] =
                (capacity - busy) / cells * 1e3;
            out["runner.worker_utilisation" + sfx] = busy / capacity;
            out["runner.attempts_per_cell" + sfx] =
                static_cast<double>(attempts) / cells;
        }
    }

    static std::string
    unitOf(const std::string &name)
    {
        auto ends = [&](const char *s) {
            std::string t(s);
            return name.size() >= t.size() &&
                   name.compare(name.size() - t.size(), t.size(), t) ==
                       0;
        };
        auto has = [&](const char *s) {
            return name.find(s) != std::string::npos;
        };
        if (has("_ns"))
            return "ns";
        if (has("_ms"))
            return "ms";
        if (has("_s.") || ends("_s"))
            return "s";
        if (has("_cycles"))
            return "cycles";
        if (has("ratio") || has("utilisation"))
            return "ratio";
        return "count";
    }

    /**
     * Spans of one traced sweep: a round root, the shared-input
     * phases, the sweep, one lane per worker (its idle time is the
     * runner's self time), and each cell with its phases under the
     * lane that ran it.
     */
    std::uint32_t
    addRoundSpans(SpanLog &log, const Round &r)
    {
        std::uint32_t root =
            log.add("runner.round", r.startNs, r.endNs, 0, -1);
        for (const Phase &p : r.prepPhases)
            log.add(p.name, p.startNs, p.endNs, root, -1);
        std::uint32_t sw =
            log.add("runner.sweep", r.sweepStartNs, r.endNs, root, -1);
        std::map<std::uint64_t, std::uint32_t> lanes;
        for (std::size_t i = 0; i < r.report.cells.size(); ++i) {
            const auto &o = r.report.cells[i];
            if (!o.ok())
                continue;
            auto it = lanes.find(o.value->lane);
            if (it == lanes.end())
                it = lanes
                         .emplace(o.value->lane,
                                  log.add("runner.lane", r.sweepStartNs,
                                          r.endNs, sw, -1))
                         .first;
            auto ci = static_cast<std::int64_t>(i);
            std::uint32_t cs = log.add("runner.cell", o.value->startNs,
                                       o.value->endNs, it->second, ci);
            for (const Phase &p : o.value->phases)
                log.add(p.name, p.startNs, p.endNs, cs, ci);
        }
        // Workers that ran no cell still idled for the whole sweep.
        for (std::size_t l = lanes.size(); l < jobs_; ++l)
            log.add("runner.lane", r.sweepStartNs, r.endNs, sw, -1);
        return root;
    }

    void
    writeTrace(const SpanLog &log,
               const std::vector<std::uint32_t> &selfRoots,
               const std::vector<Round> &rounds, const MetricMap &layer,
               const std::string &prov)
    {
        if (opt_.traceOut.empty())
            return;
        double wall = 0, lane_wall = 0;
        for (const Round &r : rounds)
            if (r.traced && r.executor == wl_->executor()) {
                wall += r.wallS();
                lane_wall += r.wallS() - r.sweepS() + r.sweepS() * jobs_;
            }
        std::ofstream os(opt_.traceOut);
        if (!os)
            throw FsError("cannot write trace file " + opt_.traceOut);
        os.precision(17);
        os << "{\"provenance\": " << prov
           << ",\n \"workload\": " << jsonString(wl_->name())
           << ", \"seed\": " << opt_.seed << ", \"workers\": " << jobs_
           << ",\n \"wall_s\": " << wall
           << ", \"lane_wall_s\": " << lane_wall << ",\n \"self_roots\": [";
        for (std::size_t i = 0; i < selfRoots.size(); ++i)
            os << (i ? ", " : "") << selfRoots[i];
        os << "],\n \"self_s\": {";
        bool first = true;
        for (const auto &[k, v] : layer)
            if (k.rfind("self_s.", 0) == 0) {
                os << (first ? "" : ", ") << jsonString(k.substr(7))
                   << ": " << v;
                first = false;
            }
        os << "},\n \"tracing_overhead_ratio\": "
           << layer.at("tracing.overhead_ratio") << ",\n \"spans\": [\n";
        first = true;
        for (const Span &s : log.spans()) {
            os << (first ? "  " : ",\n  ") << "{\"id\": " << s.id
               << ", \"parent\": " << s.parent
               << ", \"name\": " << jsonString(s.name)
               << ", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs << ", \"cell\": " << s.cell
               << "}";
            first = false;
        }
        os << "\n]}\n";
        std::printf("trace_file: %s (%zu spans)\n", opt_.traceOut.c_str(),
                    log.spans().size());
    }

    Options opt_;
    std::vector<std::string> args_;
    std::unique_ptr<BenchWorkload> wl_;
    unsigned jobs_;
};

} // namespace

} // namespace fspb

int
main(int argc, char **argv)
{
    using namespace fspb;
    // Farm support: capture argv for worker re-exec and strip the
    // hidden --fs-worker / --fs-agent flags.
    procExecutorInit(&argc, argv);
    try {
        Options opt = parseArgs(argc, argv);
        Bench bench(opt, std::vector<std::string>(argv, argv + argc));
        if (procWorkerMode() || netAgentMode())
            bench.serve();
        return opt.record ? bench.record() : bench.measure();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fs_perfbench: %s\n", e.what());
        return 2;
    }
}
