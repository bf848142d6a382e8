#include "stats/histogram.hh"

#include <algorithm>

#include "common/log.hh"

namespace fscache
{

Histogram::Histogram(double lo, double hi, std::uint32_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / bins), counts_(bins, 0)
{
    fs_assert(bins >= 1, "histogram needs at least one bin");
    fs_assert(hi > lo, "histogram needs hi > lo");
}

std::uint32_t
Histogram::binFor(double x) const
{
    if (x <= lo_)
        return 0;
    if (x >= hi_)
        return bins() - 1;
    auto b = static_cast<std::uint32_t>((x - lo_) / width_);
    return std::min(b, bins() - 1);
}

void
Histogram::add(double x)
{
    ++counts_[binFor(x)];
    ++samples_;
    // fs-analyze: float-accum(naive-sum) support is a bounded [lo, hi]
    // interval, so the running sum cannot lose catastrophic precision
    sum_ += x;
}

double
Histogram::mean() const
{
    return samples_ == 0 ? 0.0 : sum_ / static_cast<double>(samples_);
}

double
Histogram::cdfAt(double x) const
{
    if (samples_ == 0)
        return 0.0;
    if (x < lo_)
        return 0.0;
    std::uint64_t below = 0;
    std::uint32_t last = binFor(x);
    for (std::uint32_t b = 0; b <= last; ++b)
        below += counts_[b];
    return static_cast<double>(below) / static_cast<double>(samples_);
}

double
Histogram::quantile(double q) const
{
    fs_assert(q >= 0.0 && q <= 1.0, "quantile out of [0,1]");
    if (samples_ == 0)
        return lo_;
    auto want = static_cast<std::uint64_t>(
        q * static_cast<double>(samples_));
    std::uint64_t acc = 0;
    for (std::uint32_t b = 0; b < bins(); ++b) {
        acc += counts_[b];
        if (acc >= want)
            return lo_ + width_ * (b + 1);
    }
    return hi_;
}

double
Histogram::binCenter(std::uint32_t b) const
{
    return lo_ + width_ * (b + 0.5);
}

void
Histogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    samples_ = 0;
    sum_ = 0.0;
}

void
Histogram::merge(const Histogram &other)
{
    fs_assert(other.bins() == bins() && other.lo_ == lo_ &&
                  other.hi_ == hi_,
              "merging histograms with different geometry");
    for (std::uint32_t b = 0; b < bins(); ++b)
        counts_[b] += other.counts_[b];
    samples_ += other.samples_;
    sum_ += other.sum_;  // fs-analyze: float-accum(naive-sum) see add()
}

} // namespace fscache
