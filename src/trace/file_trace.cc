#include "trace/file_trace.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/errors.hh"
#include "common/log.hh"

namespace fscache
{

namespace
{

/**
 * Full-token u64 parse (hex 0x... or decimal); throws
 * TraceFormatError with the source, record index, line and byte
 * offset of the offending token.
 */
std::uint64_t
parseField(const std::string &tok, const char *field,
           const std::string &source, std::uint64_t record,
           std::uint64_t lineno, std::uint64_t offset)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &end, 0);
    // The whole token, so an embedded NUL cannot end it early.
    if (end == tok.c_str() || end != tok.c_str() + tok.size()) {
        throw TraceFormatError(strprintf(
            "%s: bad %s '%s' (record %llu, line %llu, byte offset "
            "%llu)", source.c_str(), field, tok.c_str(),
            static_cast<unsigned long long>(record),
            static_cast<unsigned long long>(lineno),
            static_cast<unsigned long long>(offset)));
    }
    return v;
}

} // namespace

TraceBuffer
readTrace(std::istream &in, const std::string &source)
{
    TraceBuffer buf;
    std::string line;
    std::uint64_t lineno = 0;
    std::uint64_t offset = 0; // byte offset of the current line
    while (std::getline(in, line)) {
        ++lineno;
        std::uint64_t line_start = offset;
        offset += line.size() + 1;

        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string addr_str;
        if (!(fields >> addr_str))
            continue; // blank / comment-only line

        std::uint64_t record = buf.size();
        Access acc;
        acc.addr = parseField(addr_str, "address", source, record,
                              lineno, line_start);

        std::string tok;
        if (fields >> tok) {
            std::uint64_t gap = parseField(tok, "instr-gap", source,
                                           record, lineno,
                                           line_start);
            acc.instrGap = static_cast<std::uint32_t>(
                gap < 1 ? 1 : gap);
        }
        if (fields >> tok) {
            acc.nextUse = parseField(tok, "next-use", source, record,
                                     lineno, line_start);
        }
        if (fields >> tok) {
            throw TraceFormatError(strprintf(
                "%s: trailing field '%s' (record %llu, line %llu, "
                "byte offset %llu); expected '<address> "
                "[instr-gap] [next-use]'", source.c_str(),
                tok.c_str(),
                static_cast<unsigned long long>(record),
                static_cast<unsigned long long>(lineno),
                static_cast<unsigned long long>(line_start)));
        }
        buf.accesses().push_back(acc);
    }
    if (buf.size() == 0) {
        throw TraceFormatError(strprintf(
            "%s: trace contains no accesses (file is empty or "
            "holds only comments/blank lines)", source.c_str()));
    }
    return buf;
}

TraceBuffer
loadTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw TraceFormatError(strprintf(
            "cannot open trace file '%s'", path.c_str()));
    }
    return readTrace(in, path);
}

void
writeTrace(std::ostream &out, const TraceBuffer &trace)
{
    bool annotated = false;
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        if (trace[i].nextUse != kNeverUsed) {
            annotated = true;
            break;
        }
    }
    out << "# fscache trace: address instr-gap"
        << (annotated ? " next-use" : "") << "\n";
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        const Access &a = trace[i];
        out << "0x" << std::hex << a.addr << std::dec << ' '
            << a.instrGap;
        if (annotated)
            out << ' ' << a.nextUse;
        out << '\n';
    }
}

void
saveTraceFile(const std::string &path, const TraceBuffer &trace)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write trace file '%s'", path.c_str());
    writeTrace(out, trace);
}

} // namespace fscache
