#include "stats/running_stats.hh"

#include <cmath>

namespace fscache
{

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        if (x < min_)
            min_ = x;
        if (x > max_)
            max_ = x;
    }
    ++n_;
    double delta = x - mean_;
    // fs-analyze: float-accum(welford)
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);  // fs-analyze: float-accum(welford)
}

double
RunningStats::variance() const
{
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::clear()
{
    n_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

void
AbsDeviationStats::add(double x)
{
    ++n_;
    double d = x - reference_;
    // fs-analyze: float-accum(naive-sum) deviations are O(1)-magnitude and
    // sample counts bounded by trace length; error << reported digits
    signedSum_ += d;
    absSum_ += d < 0 ? -d : d;  // fs-analyze: float-accum(naive-sum)
}

void
AbsDeviationStats::clear()
{
    n_ = 0;
    absSum_ = 0.0;
    signedSum_ = 0.0;
}

} // namespace fscache
