#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sentry
{

void
RunningStat::add(double sample)
{
    ++count_;
    samples_.push_back(sample);
    if (count_ == 1) {
        mean_ = sample;
        min_ = max_ = sample;
        m2_ = 0.0;
        return;
    }
    const double delta = sample - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (sample - mean_);
    if (sample < min_)
        min_ = sample;
    if (sample > max_)
        max_ = sample;
}

double
RunningStat::stddev() const
{
    if (count_ < 2)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

double
RunningStat::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double clamped = std::clamp(p, 0.0, 100.0);
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
    return sorted[rank == 0 ? 0 : rank - 1];
}

void
RunningStat::reset()
{
    count_ = 0;
    mean_ = m2_ = min_ = max_ = 0.0;
    samples_.clear();
}

std::string
RunningStat::summary(int precision) const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f ± %.*f", precision, mean(),
                  precision, stddev());
    return buf;
}

namespace
{

/** Heap/trim order: keep the samples with the *smallest* priorities,
 * breaking ties on value so the retained set is a pure function of the
 * sample multiset. */
bool
weightedLess(const MergeStat::Weighted &a, const MergeStat::Weighted &b)
{
    if (a.priority != b.priority)
        return a.priority < b.priority;
    return a.value < b.value;
}

} // namespace

MergeStat::MergeStat(std::size_t cap) : cap_(cap == 0 ? 1 : cap) {}

void
MergeStat::add(double sample, std::uint64_t priority)
{
    ++count_;
    runningSum_ += sample;
    if (count_ == 1) {
        min_ = max_ = sample;
    } else {
        if (sample < min_)
            min_ = sample;
        if (sample > max_)
            max_ = sample;
    }
    keep_.push_back({priority, sample});
    std::push_heap(keep_.begin(), keep_.end(), weightedLess);
    if (keep_.size() > cap_) {
        std::pop_heap(keep_.begin(), keep_.end(), weightedLess);
        keep_.pop_back();
    }
}

void
MergeStat::merge(const MergeStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    runningSum_ += other.runningSum_;
    for (const Weighted &w : other.keep_) {
        keep_.push_back(w);
        std::push_heap(keep_.begin(), keep_.end(), weightedLess);
        if (keep_.size() > cap_) {
            std::pop_heap(keep_.begin(), keep_.end(), weightedLess);
            keep_.pop_back();
        }
    }
}

double
MergeStat::mean() const
{
    if (count_ == 0)
        return 0.0;
    if (count_ > keep_.size())
        return runningSum_ / static_cast<double>(count_);
    // Everything retained: sum in sorted order so the result is a pure
    // function of the sample multiset, not of fold/merge order.
    double sum = 0.0;
    for (double value : sortedValues())
        sum += value;
    return sum / static_cast<double>(count_);
}

double
MergeStat::percentile(double p) const
{
    if (keep_.empty())
        return 0.0;
    const std::vector<double> sorted = sortedValues();
    const double clamped = std::clamp(p, 0.0, 100.0);
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
    return sorted[rank == 0 ? 0 : rank - 1];
}

std::vector<double>
MergeStat::sortedValues() const
{
    std::vector<double> values;
    values.reserve(keep_.size());
    for (const Weighted &w : keep_)
        values.push_back(w.value);
    std::sort(values.begin(), values.end());
    return values;
}

void
ExactSum::add(double x)
{
    if (x == 0.0)
        return;
    // Two-sum x into each partial in turn: keep the rounding error
    // (if any) as a partial and carry the rounded sum upward.
    std::size_t kept = 0;
    for (double y : partials_) {
        if (std::fabs(x) < std::fabs(y))
            std::swap(x, y);
        const double hi = x + y;
        const double lo = y - (hi - x);
        if (lo != 0.0)
            partials_[kept++] = lo;
        x = hi;
    }
    partials_.resize(kept);
    partials_.push_back(x);
}

void
ExactSum::merge(const ExactSum &other)
{
    for (double partial : other.partials_)
        add(partial);
}

double
ExactSum::value() const
{
    std::size_t n = partials_.size();
    if (n == 0)
        return 0.0;
    // Add from the top down until a sum is inexact.
    double hi = partials_[--n];
    double lo = 0.0;
    while (n > 0) {
        const double x = hi;
        const double y = partials_[--n];
        hi = x + y;
        lo = y - (hi - x);
        if (lo != 0.0)
            break;
    }
    // hi + lo is exact. If lo is half an ulp of hi, hi took a tie;
    // when the partials below lean the same way as lo, the sum is past
    // the tie and rounds to hi + 2 lo instead.
    if (n > 0 && ((lo < 0.0 && partials_[n - 1] < 0.0) ||
                  (lo > 0.0 && partials_[n - 1] > 0.0))) {
        const double y = lo * 2.0;
        const double x = hi + y;
        if (y == x - hi)
            hi = x;
    }
    return hi;
}

} // namespace sentry
