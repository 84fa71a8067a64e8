#include "serve/server.hh"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/logging.hh"
#include "serve/latency_histogram.hh"

namespace ssp::serve
{

namespace
{

/** Fewest closed-loop transactions a capacity calibration runs. */
constexpr std::uint64_t kMinCalibrationTxs = 200;

/** Per-core FIFOs of the arrival cycles of waiting requests. */
using Queues = std::vector<std::deque<Cycles>>;

/** The next request serve dispatches. */
struct Dispatch
{
    bool ready = false; ///< some core has a waiting request
    unsigned core = 0;
    Cycles start = 0; ///< max(core clock, the request's arrival)
};

/**
 * serve's dispatch rule: among cores with a waiting request, the one
 * whose request can start earliest, ties to the lowest core id.
 */
Dispatch
nextDispatch(const Machine &machine, const Queues &queues)
{
    Dispatch next;
    const auto num_cores = static_cast<unsigned>(queues.size());
    for (unsigned c = 0; c < num_cores; ++c) {
        if (queues[c].empty())
            continue;
        const Cycles start = std::max(machine.clock(c), queues[c].front());
        if (!next.ready || start < next.start)
            next = {true, c, start};
    }
    return next;
}

} // namespace

RunResult
runServeExperiment(Experiment &exp, std::uint64_t num_requests,
                   unsigned num_cores, const ServeParams &params)
{
    Machine &machine = exp.backend->machine();
    ssp_assert(num_requests > 0, "serve run needs at least one request");
    ssp_assert(num_cores >= 1 && num_cores <= machine.cfg().numCores,
               "serve run uses more cores than the machine has");
    ssp_assert(params.offeredLoad > 0, "offered load must be positive");
    ssp_assert(params.queueDepth > 0, "queue depth must be positive");

    // Calibrate: measure closed-loop capacity (cycles per transaction at
    // this core count) so the offered load can be expressed as a factor
    // of what the cell can actually sustain.  Every core always has a
    // request waiting, so the dispatch picks the lowest clock.  The
    // calibration phase also warms caches/TLBs, like the setup phase
    // does for closed-loop runs.
    machine.syncClocks();
    const RunResult calib_start = readCounters(exp);
    const Queues backlog(num_cores, std::deque<Cycles>{0});
    const std::uint64_t calib_txs =
        std::max(kMinCalibrationTxs, num_requests / 5);
    for (std::uint64_t i = 0; i < calib_txs; ++i)
        exp.workload->runOp(nextDispatch(machine, backlog).core);
    const RunResult calib = counterDelta(readCounters(exp), calib_start);
    ssp_assert(calib.committedTxs > 0 && calib.cycles > 0,
               "calibration phase measured no throughput");
    const double mean_interval =
        static_cast<double>(calib.cycles) /
        (static_cast<double>(calib.committedTxs) * params.offeredLoad);

    // Measured phase starts from a barrier, like every closed-loop run.
    machine.syncClocks();
    const RunResult base = readCounters(exp);
    const Cycles serve_start = base.cycles;

    std::vector<std::uint64_t> busy(num_cores, 0);
    std::vector<std::uint64_t> served(num_cores, 0);
    ArrivalProcess arrivals(params.arrival, mean_interval, params.seed);
    Queues queues(num_cores);
    std::vector<LatencyHistogram> hists(num_cores);

    std::uint64_t delivered = 0; ///< arrivals handed to a queue (or shed)
    std::uint64_t rejected = 0;
    std::uint64_t waiting = 0; ///< requests queued but not yet in service
    Cycles next_arrival = serve_start + arrivals.next();

    // Time-weighted queue-depth integral, advanced at every event (an
    // arrival delivery or a dispatch start).  Event times are monotone:
    // arrivals are non-decreasing, and a dispatch is only taken when no
    // earlier arrival is pending.
    Cycles last_event = serve_start;
    double depth_area = 0;
    auto advance_to = [&](Cycles now) {
        ssp_assert(now >= last_event, "serve events ran backwards");
        depth_area += static_cast<double>(waiting) *
                      static_cast<double>(now - last_event);
        last_event = now;
    };

    while (delivered < num_requests || waiting > 0) {
        const Dispatch next = nextDispatch(machine, queues);
        if (delivered < num_requests &&
            (!next.ready || next_arrival <= next.start)) {
            // Deliver the next arrival to its queue (round-robin across
            // cores), shedding it if the queue is at its bound.
            advance_to(next_arrival);
            const unsigned core =
                static_cast<unsigned>(delivered % num_cores);
            if (queues[core].size() >= params.queueDepth) {
                ++rejected;
            } else {
                queues[core].push_back(next_arrival);
                ++waiting;
            }
            ++delivered;
            if (delivered < num_requests)
                next_arrival = serve_start + arrivals.next();
            continue;
        }

        // Dispatch: the request leaves the queue at its start cycle; an
        // idle core fast-forwards to the arrival it was waiting for.
        advance_to(next.start);
        const CoreId core = next.core;
        const Cycles arrived = queues[core].front();
        queues[core].pop_front();
        --waiting;
        machine.clock(core) = std::max(machine.clock(core), arrived);
        const Cycles op_start = machine.clock(core);
        exp.workload->runOp(core);
        const Cycles done = machine.clock(core);
        busy[core] += done - op_start;
        ++served[core];
        hists[core].record(done - arrived);
    }

    RunResult res = counterDelta(readCounters(exp), base);
    res.coreBusyCycles = std::move(busy);
    res.coreTxs = std::move(served);

    LatencyHistogram merged;
    for (const LatencyHistogram &h : hists)
        merged.merge(h);
    ssp_assert(merged.count() + rejected == num_requests,
               "serve run lost requests");
    res.p50Cycles = merged.percentile(0.50);
    res.p99Cycles = merged.percentile(0.99);
    res.p999Cycles = merged.percentile(0.999);
    res.rejectedTxs = rejected;
    res.offeredLoad = params.offeredLoad;
    const Cycles elapsed = machine.maxClock() - serve_start;
    res.meanQueueDepth =
        elapsed == 0 ? 0 : depth_area / static_cast<double>(elapsed);
    return res;
}

} // namespace ssp::serve
