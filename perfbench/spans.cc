/**
 * @file
 * In-memory span store and per-layer self time.
 */

#include <algorithm>
#include <utility>

#include "perfbench.hh"

namespace fspb
{

std::uint32_t
SpanLog::add(const std::string &name, std::uint64_t start,
             std::uint64_t end, std::uint32_t parent,
             std::int64_t cell)
{
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.startNs = start;
    s.endNs = std::max(start, end);
    s.cell = cell;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::map<std::string, double>
SpanLog::selfSecondsByLayer(const std::vector<std::uint32_t> &roots) const
{
    // Ids are dense and parents always precede their children, so
    // one forward pass finds every span under the given roots.
    std::vector<char> under(spans_.size() + 1, 0);
    for (std::uint32_t r : roots)
        under[r] = 1;
    std::vector<std::vector<std::uint32_t>> children(spans_.size() + 1);
    for (const Span &s : spans_) {
        if (s.parent != 0 && under[s.parent]) {
            under[s.id] = 1;
            children[s.parent].push_back(s.id);
        }
    }

    std::map<std::string, double> out;
    for (const Span &s : spans_) {
        if (!under[s.id])
            continue;
        // Union of the children's intervals, clipped to the span.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (std::uint32_t c : children[s.id]) {
            const Span &k = spans_[c - 1];
            std::uint64_t a = std::max(k.startNs, s.startNs);
            std::uint64_t b = std::min(k.endNs, s.endNs);
            if (a < b)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += nsToS(s.endNs - s.startNs - covered);
    }
    return out;
}

} // namespace fspb
