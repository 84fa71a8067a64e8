/**
 * @file
 * Bank/row-buffer timing model for one memory technology (DRAM or NVRAM).
 *
 * This is the DRAMSim2-style substrate the paper's evaluation runs on
 * (Table 2): per-bank row buffers, distinct read/write access latencies,
 * and bank-level parallelism.  The model is deliberately first-order —
 * a request to a busy bank queues behind it; a row-buffer hit pays a
 * reduced latency; a miss pays the full device latency.
 */

#ifndef SSP_MEM_TIMING_MODEL_HH
#define SSP_MEM_TIMING_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace ssp
{

/** Static timing parameters of one memory technology. */
struct MemTimingParams
{
    /** Human-readable name used in stats ("dram", "nvram").  An owned
     *  string: configs built dynamically (device presets, sweeps) must
     *  not leave dangling pointers behind. */
    std::string name = "mem";
    /** Number of banks on the (single) channel. */
    unsigned banks = 32;
    /** Row-buffer size in bytes. */
    std::uint64_t rowBufferBytes = 2048;
    /** Array read latency on a row miss, in core cycles. */
    Cycles readLatency = 185;
    /** Array write latency on a row miss, in core cycles. */
    Cycles writeLatency = 740;
    /** Fraction of the miss latency paid on a read row-buffer hit. */
    double rowHitFraction = 0.4;
    /**
     * Fraction of the miss latency paid on a write row-buffer hit.
     * DRAM writes benefit like reads (0.4); NVRAM cell programming
     * dominates writes, so the row buffer gives no discount (1.0).
     */
    double writeHitFraction = 1.0;

    /** Derived: latency of a row-buffer hit for reads. */
    Cycles readHitLatency() const;
    /** Derived: latency of a row-buffer hit for writes. */
    Cycles writeHitLatency() const;

    bool operator==(const MemTimingParams &) const = default;
};

/**
 * Timing state for one memory channel.
 *
 * Each access returns its completion time given the issue time; the model
 * tracks per-bank availability and open rows.  Background traffic (page
 * consolidation, checkpointing, post-commit write-back) occupies banks —
 * so it steals bandwidth from the critical path — but callers choose not
 * to stall on its completion, which is exactly how the paper moves those
 * writes off the critical path.
 */
class MemTimingModel
{
  public:
    explicit MemTimingModel(const MemTimingParams &params);

    /**
     * Issue a line-sized access.
     *
     * @param addr Physical byte address (used for bank/row mapping).
     * @param is_write True for writes.
     * @param now Issue time in core cycles.
     * @param background Background writes (consolidation, checkpointing,
     *        post-commit write-back, cache evictions) occupy banks but
     *        do not enter the ordered foreground write queue, so nothing
     *        on the critical path waits behind them.
     * @return Completion time in core cycles (>= now).
     */
    Cycles access(Addr addr, bool is_write, Cycles now,
                  bool background = false);

    /** Row-buffer hit count (reads + writes). */
    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }
    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

    const MemTimingParams &params() const { return params_; }

    /** Forget all bank state (used across simulated power cycles). */
    void reset();

  private:
    struct Bank
    {
        Cycles freeAt = 0;
        std::uint64_t openRow = ~std::uint64_t{0};
    };

    /** Data-bus burst occupancy per foreground write (core cycles). */
    static constexpr Cycles kWriteBurstCycles = 24;

    /**
     * Next free data-bus slot for foreground writes.  Independent
     * flushes issued before one fence drain bank-parallel but still
     * share the channel — redundant critical-path write traffic costs
     * bus slots, which is the effect the paper attacks.  Background
     * writes (consolidation, checkpoints, post-commit write-back) use
     * idle slots and are not modeled as contending.
     */
    Cycles writeBusFreeAt_ = 0;

    unsigned bankOf(Addr addr) const;
    std::uint64_t rowOf(Addr addr) const;

    MemTimingParams params_;
    std::vector<Bank> banks_;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace ssp

#endif // SSP_MEM_TIMING_MODEL_HH
