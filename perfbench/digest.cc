/**
 * @file
 * Cell digests, the expected-digest table and the cell codec.
 *
 * A digest folds every simulated statistic a cell produced, so two
 * runs agree on it exactly when the simulator computed the same
 * thing. The expected table (expected_digests.txt) holds one line
 * per recorded (workload, scale, seed):
 *
 *   <workload> <scale> <seed> <16 hex digits>
 *
 * where the digest is the fold of every cell digest in cell order.
 */

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/errors.hh"
#include "perfbench.hh"
#include "runner/checkpoint.hh"
#include "sim/memory_model.hh"

namespace fspb
{

Digest &
Digest::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
    return *this;
}

Digest &
Digest::f64(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
}

std::uint64_t
cacheDigest(const PartitionedCache &cache, const TimingSim *timing,
            std::uint32_t threads)
{
    Digest d;
    for (PartId p = 0; p < cache.numPartitions(); ++p) {
        const CachePartStats &s = cache.stats(p);
        d.u64(s.hits).u64(s.misses).u64(s.evictions);
        d.f64(cache.assocDist(p).aef());
    }
    if (timing != nullptr) {
        for (std::uint32_t t = 0; t < threads; ++t)
            d.f64(timing->perf(t).ipc()).u64(timing->perf(t).cycles);
        d.u64(timing->memory().requests());
        d.f64(timing->memory().avgQueueing());
    }
    return d.value();
}

std::string
expectKey(const std::string &workload, double scale,
          std::uint64_t seed)
{
    std::ostringstream os;
    os << workload << ' ' << scale << ' ' << seed;
    return os.str();
}

std::map<std::string, std::uint64_t>
loadExpected(const std::string &path)
{
    std::map<std::string, std::uint64_t> out;
    if (path.empty())
        return out;
    std::ifstream in(path);
    if (!in)
        throw FsError("cannot read expected digests: " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, hex;
        double scale = 0.0;
        std::uint64_t seed = 0;
        if (!(ls >> wl >> scale >> seed >> hex) || hex.size() != 16)
            throw FsError("malformed expected-digest line: " + line);
        out[expectKey(wl, scale, seed)] =
            std::stoull(hex, nullptr, 16);
    }
    return out;
}

std::string
encodeCell(const CellResult &r)
{
    CellEncoder e;
    e.u64(r.digest).u64(r.accesses).u64(r.setupNs);
    e.u64(r.startNs).u64(r.endNs).u64(r.lane);
    e.u64(r.phases.size());
    for (const Phase &p : r.phases)
        e.str(p.name).u64(p.startNs).u64(p.endNs);
    return e.result();
}

CellResult
decodeCell(const std::string &payload)
{
    CellDecoder d(payload);
    CellResult r;
    r.digest = d.u64();
    r.accesses = d.u64();
    r.setupNs = d.u64();
    r.startNs = d.u64();
    r.endNs = d.u64();
    r.lane = d.u64();
    std::uint64_t n = d.u64();
    if (n > 64)
        throw FsError("cell payload: too many phases");
    r.phases.resize(n);
    for (Phase &p : r.phases) {
        p.name = d.str();
        p.startNs = d.u64();
        p.endNs = d.u64();
    }
    return r;
}

} // namespace fspb
