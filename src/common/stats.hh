/**
 * @file
 * Lightweight statistics summaries.
 *
 * Counters are plain uint64 — the simulator is single-threaded (it
 * *models* multiple cores), so no atomics are needed.
 */

#ifndef SSP_COMMON_STATS_HH
#define SSP_COMMON_STATS_HH

#include <cstdint>

namespace ssp
{

/**
 * Running scalar summary (count/sum/min/max) for quantities like
 * write-set sizes, where the paper reports averages and maxima (Table 3).
 */
class StatSummary
{
  public:
    void sample(std::uint64_t v);
    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

} // namespace ssp

#endif // SSP_COMMON_STATS_HH
