/**
 * @file
 * Correctness and fidelity checks over sweep reports: the checked-in
 * BENCH_*.json oracle, the traced/untraced identity check, the oracle's
 * own self-test, and the distance from the SSP paper's headline claims.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <string>
#include <vector>

#include "sweep/sweep_runner.hh"

namespace perfbench
{

/**
 * Count the cells of report @p got that do not match report @p want:
 * with @p metrics_only, a cell matches when it is ok and its "metrics"
 * object equals that of the same-label cell in @p want; otherwise the
 * whole cell entry must be equal.  A label missing from @p want is a
 * miss.  Labels of misses are appended to @p misses when non-null.
 */
std::size_t countMisses(const ssp::Json &got, const ssp::Json &want,
                        bool metrics_only,
                        std::vector<std::string> *misses = nullptr);

/**
 * Show that the oracle catches drift: a copy of @p reference with one
 * metric of its first cell changed must miss exactly one cell, and an
 * unchanged copy none.  @p detail describes what was perturbed.
 */
bool oracleSelfTest(const ssp::Json &reference, std::string &detail);

/** One headline claim of the paper, reproduced from the fig5 grid. */
struct PaperClaim
{
    const char *source;     ///< figure of the paper
    const char *baseline;   ///< design SSP is compared against
    const char *definition; ///< how the reproduced value is computed
    double paper = 0;
    double reproduced = 0;
};

/**
 * The eight Fig 5a/5b/6/7 claims computed from the fig5 grid's results.
 * Fatal (throws) when a needed cell is missing or not ok.
 */
std::vector<PaperClaim>
paperClaims(const std::vector<ssp::sweep::CellResult> &fig5);

/** Mean |ln(reproduced / paper)| over @p claims. */
double paperGap(const std::vector<PaperClaim> &claims);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
