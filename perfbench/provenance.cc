/**
 * @file
 * Provenance block written into every result and trace file, so a
 * captured number always names the build and host that produced it.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "common/simd.hh"
#include "perfbench.hh"

extern char **environ;

namespace fspb
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                          colon + 1));
        }
    }
    return "unknown";
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

unsigned
defaultWorkers()
{
    return std::clamp(onlineCpus(), 1u, 4u);
}

double
peakRssMb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

std::string
provenanceJson(const Options &opt, const std::string &executors)
{
    char host[256] = {0};
    if (gethostname(host, sizeof host - 1) != 0)
        std::strcpy(host, "unknown");

    std::ostringstream fs_env;
    bool first = true;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "FS_", 3) != 0)
            continue;
        std::string kv(*e);
        auto eq = kv.find('=');
        fs_env << (first ? "" : ", ") << jsonString(kv.substr(0, eq))
               << ": "
               << jsonString(eq == std::string::npos ? ""
                                                     : kv.substr(eq + 1));
        first = false;
    }

    std::ostringstream os;
    os << "{\"revision\": " << jsonString(opt.revision)
       << ", \"compiler\": " << jsonString(FSPB_COMPILER)
       << ", \"cxx_flags\": " << jsonString(FSPB_CXX_FLAGS)
       << ", \"build_type\": " << jsonString(FSPB_BUILD_TYPE)
       << ", \"simd_compiled\": " << jsonString(FSPB_SIMD_COMPILED)
       << ", \"simd_backend\": " << jsonString(simd::backendName())
       << ", \"executor\": " << jsonString(executors)
       << ", \"workers\": " << defaultWorkers()
       << ", \"fs_env\": {" << fs_env.str() << "}"
       << ", \"cpu_model\": " << jsonString(cpuModel())
       << ", \"nproc\": " << onlineCpus()
       << ", \"host\": " << jsonString(host)
       << ", \"scale\": " << opt.scale << "}";
    return os.str();
}

} // namespace fspb
