/**
 * @file
 * In-memory span recording for the traced benchmark pass, the per-layer
 * self-time split, and the Chrome Trace Event writer.
 *
 * Every worker thread owns one SpanLog, so recording takes no lock.
 * Spans nest strictly (a cell span contains its build/setup/run/verify/
 * recover/teardown children), and each span's self time — its duration
 * minus the part its children cover — is computed when it closes, in
 * integer nanoseconds.  The self times of all spans under a cell
 * therefore sum exactly to the cell span's duration.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/report.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One closed span.  @c layer and @c phase point at string literals. */
struct Span
{
    const char *layer = "";  ///< "<src module>.<phase>", e.g. "sim.run"
    const char *phase = "";  ///< build/setup/run/verify/recover/teardown
    std::size_t cell = 0;    ///< index of the cell the span belongs to
    std::int64_t startNs = 0; ///< relative to the pass origin
    std::int64_t durNs = 0;
    std::int64_t selfNs = 0;  ///< durNs minus the children's durNs
    int depth = 0;            ///< 0 = a root span
};

/** Spans recorded by one thread, in closing order. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    const std::vector<Span> &spans() const { return spans_; }

  private:
    friend class ScopedSpan;

    struct Open
    {
        Span span;
        std::int64_t childNs = 0;
    };

    std::int64_t now() const;

    Clock::time_point origin_;
    std::vector<Open> open_;
    std::vector<Span> spans_;
};

/** Records one span from construction to destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *layer, const char *phase,
               std::size_t cell);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
};

/** Self time summed per layer over @p logs, plus the root total. */
struct SelfTimes
{
    std::map<std::string, std::int64_t> byLayer;
    std::int64_t rootNs = 0; ///< summed duration of every depth-0 span

    /** Sum of byLayer; equals rootNs when every span nests. */
    std::int64_t sum() const;
};

SelfTimes selfTimes(const std::vector<SpanLog> &logs);

/**
 * Write @p logs as a Chrome Trace Event JSON document: one track per
 * worker (tid = worker index) plus @p main_log on its own "sweep"
 * track, every span an "X" event carrying its cell's label (from
 * @p cell_labels, indexed like Span::cell) as its id.
 * @p other_data lands under "otherData" (recorded conditions).
 * @return false when the file could not be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanLog> &logs,
                      const SpanLog &main_log,
                      const std::vector<std::string> &cell_labels,
                      const ssp::Json &other_data);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
