#include "common/stats.hh"

namespace ssp
{

void
StatSummary::sample(std::uint64_t v)
{
    ++count_;
    sum_ += v;
    if (v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
}

void
StatSummary::reset()
{
    count_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t{0};
    max_ = 0;
}

double
StatSummary::mean() const
{
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) /
                                   static_cast<double>(count_);
}

} // namespace ssp
