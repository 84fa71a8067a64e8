/**
 * @file
 * Coherence cost models.
 *
 * SSP extends the cache-coherence network with a flip-current-bit message
 * (paper section 4.1.1): when a core writes a cache line for the first
 * time inside a transaction, the new current bit must become visible to
 * every other core's extended TLB and to the memory controller.  The
 * simulator shares the authoritative current bitmap through the SSP-cache
 * entry, so the functional effect is immediate; the coherence model
 * prices the traffic — one send per first-write, plus the shootdown of
 * peer-cached copies of the remapped-away line — and counts the messages
 * per core.  Ordinary MESI-style invalidations ride the same network: a
 * store that hits a line cached by another core invalidates the peer
 * copies (see CacheHierarchy::write), costing the sender one traversal.
 *
 * Two implementations exist behind the CoherenceModel interface:
 *
 *  - BroadcastCoherence (default): the historical flat-cost snooping
 *    bus — every event costs the sender one fixed broadcastLatency and
 *    reaches all numCores-1 peers, regardless of how many actually
 *    share the line.  All checked-in BENCH grids are priced by it.
 *  - DirectoryCoherence (src/interconnect/): a home-node directory on
 *    a 2D mesh, where cost scales with Manhattan hop distance and the
 *    actual sharer count, bounded by a capacity-limited snoop filter.
 */

#ifndef SSP_CACHE_COHERENCE_HH
#define SSP_CACHE_COHERENCE_HH

#include <cstdint>
#include <vector>

#include "common/bitmap64.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace ssp
{

/** Which coherence cost model prices the machine's traffic. */
enum class CoherenceMode
{
    Broadcast, ///< flat-cost snooping bus (the historical model)
    Directory, ///< home-node directory on a 2D mesh
};

/** Knobs of the directory/mesh model (ignored in Broadcast mode). */
struct CoherenceParams
{
    CoherenceMode mode = CoherenceMode::Broadcast;

    /** Mesh dimensions; 0 = derive a square-ish power-of-two grid
     *  from the core count (16x16 at 256 cores). */
    unsigned meshWidth = 0;
    unsigned meshHeight = 0;

    /** Cycles one message takes per mesh hop (link + router). */
    Cycles hopCycles = 3;

    /** Cycles one home-node directory lookup takes (SRAM tag array). */
    Cycles directoryLookupCycles = 12;

    /**
     * Snoop-filter capacity per home tile in tracked lines; evicting a
     * live entry forces back-invalidation of its sharer copies (the
     * inclusion property directories enforce).  0 = unbounded.
     */
    unsigned snoopFilterEntries = 4096;

    bool operator==(const CoherenceParams &) const = default;
};

/**
 * Interface every coherence cost model implements, plus the message
 * counters all models share.  The hierarchy and the engines call the
 * virtual cost hooks on every coherence event; the cache hierarchy
 * holds the model by value (AnyCoherenceModel) and Machine applies the
 * receiver-side cycle charges it prices.
 */
class CoherenceModel
{
  public:
    explicit CoherenceModel(unsigned num_cores) { widen(num_cores); }

    virtual ~CoherenceModel() = default;

    /**
     * Grow to @p num_cores cores (at least the current count); the
     * added cores start with zero per-core counters.  Only a model
     * whose costs do not depend on the core count may widen after
     * construction (CacheHierarchy::widen checks).
     */
    void
    widen(unsigned num_cores)
    {
        ssp_assert(num_cores >= numCores_, "a machine never loses cores");
        numCores_ = num_cores;
        flipsSent_.resize(num_cores, 0);
        invalidationsSent_.resize(num_cores, 0);
        messagesReceived_.resize(num_cores, 0);
    }

    /**
     * Price a flip-current-bit send for the sub-page holding @p line,
     * whose dropped peer copies are @p peers (possibly empty — the
     * flip must reach the extended TLBs even when nobody cached the
     * lines).
     * @return Completion time for the sending core.
     */
    virtual Cycles flipCurrentBit(CoreId sender, Addr line,
                                  const CoreBitmap &peers, Cycles now) = 0;

    /**
     * Price an ordinary cross-core invalidation: a store hit @p line
     * while the peers in @p peers had it cached.  Only called when
     * @p peers is non-empty.
     * @return Completion time for the sending core.
     */
    virtual Cycles invalidate(CoreId sender, Addr line,
                              const CoreBitmap &peers, Cycles now) = 0;

    /**
     * Receiver-side cycle charge for processing a flip-broadcast
     * shootdown of @p line at @p receiver (applied by Machine, which
     * owns the core clocks).
     */
    virtual Cycles shootdownReceiverCost(CoreId receiver,
                                         Addr line) const = 0;

    /** Volatile model state lost on power failure (filters, queues);
     *  counters are measurement state and survive. */
    virtual void powerFail() {}

    /**
     * Account a flip-broadcast shootdown landing at @p receiver: a peer
     * copy of a remapped-away line was dropped.  The receiver-side
     * cycle charge is applied by Machine, which owns the core clocks.
     */
    void
    deliverShootdown(CoreId receiver)
    {
        ++messagesReceived_[receiver];
        ++shootdownsDelivered_;
    }

    /**
     * Account an ordinary write invalidation landing at @p receiver.
     * Receivers absorb these in the cache controller; no clock charge.
     */
    void
    deliverInvalidation(CoreId receiver)
    {
        ++messagesReceived_[receiver];
        ++invalidationsDelivered_;
    }

    std::uint64_t flipMessages() const { return flipMessages_; }
    std::uint64_t invalidations() const { return invalidations_; }
    /** Flip-broadcast shootdowns that found and dropped a peer copy. */
    std::uint64_t shootdownsDelivered() const { return shootdownsDelivered_; }
    /** Write invalidations that found and dropped a peer copy. */
    std::uint64_t
    invalidationsDelivered() const
    {
        return invalidationsDelivered_;
    }
    std::uint64_t flipsSent(CoreId core) const { return flipsSent_[core]; }
    std::uint64_t
    invalidationsSent(CoreId core) const
    {
        return invalidationsSent_[core];
    }
    std::uint64_t
    messagesReceived(CoreId core) const
    {
        return messagesReceived_[core];
    }
    /**
     * Total interconnect messages the model priced: per event, a
     * broadcast reaches every peer while a directory multicasts to the
     * home node and the actual sharers — the traffic the scale256 grid
     * compares across modes.
     */
    std::uint64_t messages() const { return messages_; }
    unsigned numCores() const { return numCores_; }

    /** @{ Directory-only counters; zero for models without one. */
    virtual std::uint64_t directoryLookups() const { return 0; }
    virtual std::uint64_t hopTraversalCycles() const { return 0; }
    virtual std::uint64_t snoopFilterEvictions() const { return 0; }
    virtual std::uint64_t backInvalidations() const { return 0; }
    /** @} */

  protected:
    /** Count one flip-current-bit send from @p sender. */
    void
    countFlip(CoreId sender)
    {
        ++flipMessages_;
        ++flipsSent_[sender];
    }

    /** Count one write-invalidation send from @p sender. */
    void
    countInvalidation(CoreId sender)
    {
        ++invalidations_;
        ++invalidationsSent_[sender];
    }

    /** Count @p n priced interconnect messages. */
    void countMessages(std::uint64_t n) { messages_ += n; }

  private:
    unsigned numCores_ = 0;
    std::uint64_t flipMessages_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t shootdownsDelivered_ = 0;
    std::uint64_t invalidationsDelivered_ = 0;
    std::uint64_t messages_ = 0;
    std::vector<std::uint64_t> flipsSent_;
    std::vector<std::uint64_t> invalidationsSent_;
    std::vector<std::uint64_t> messagesReceived_;
};

/**
 * The historical flat-cost snooping bus: every event costs the sender
 * one fixed broadcast latency and reaches all numCores-1 peers,
 * independent of the actual sharer set.  The default model; all six
 * original checked-in BENCH grids are priced by it, byte for byte.
 */
class BroadcastCoherence final : public CoherenceModel
{
  public:
    /**
     * @param num_cores Number of cores on the bus.
     * @param broadcast_latency Cycles a broadcast adds to the sender
     *        (piggy-backed on invalidations, so this is small).
     */
    BroadcastCoherence(unsigned num_cores, Cycles broadcast_latency)
        : CoherenceModel(num_cores), broadcastLatency_(broadcast_latency)
    {
    }

    Cycles
    flipCurrentBit(CoreId sender, Addr, const CoreBitmap &,
                   Cycles now) override
    {
        countFlip(sender);
        // With a single core there is nobody to notify; the paper's
        // mechanism piggybacks on invalidations, costing the sender the
        // bus traversal only when other cores exist.
        if (numCores() <= 1)
            return now;
        countMessages(numCores() - 1);
        return now + broadcastLatency_;
    }

    Cycles
    invalidate(CoreId sender, Addr, const CoreBitmap &,
               Cycles now) override
    {
        countInvalidation(sender);
        if (numCores() <= 1)
            return now;
        countMessages(numCores() - 1);
        return now + broadcastLatency_;
    }

    Cycles
    shootdownReceiverCost(CoreId, Addr) const override
    {
        return broadcastLatency_;
    }

    Cycles broadcastLatency() const { return broadcastLatency_; }

  private:
    Cycles broadcastLatency_;
};

} // namespace ssp

#endif // SSP_CACHE_COHERENCE_HH
