/**
 * @file
 * The cell fault harness: wires one FaultPlan into a running cluster.
 *
 * FaultInjector implements the fault-injection surface
 * (ClusterFaultDriver: the slot loop's hooks plus the coordinator's
 * logged 2PC hooks) from one deterministic plan, so every injected
 * failure, every recovery charge and every replication message is a
 * pure function of the cell seed.  PowerFail events fire at slot
 * boundaries; the two window kinds arm per-machine flags that the next
 * cross-shard transaction touching the machine consumes, which anchors
 * mid-protocol crashes to the transaction order rather than to wall
 * positions that would drift with timing changes.
 *
 * Replication is primary/backup with synchronous log shipping: every
 * commit ships its records to the machine's backup (priced through the
 * NetworkModel as traffic to a pseudo-machine id machines+m) and waits
 * for the ack, and a failed primary is promoted-over — the downtime is
 * failoverCycles(), strictly below the in-place recovery scan, because
 * the backup is already current.
 */

#ifndef SSP_FAULT_FAULT_INJECTOR_HH
#define SSP_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hh"
#include "shard/shard_driver.hh"

namespace ssp::fault
{

/** Fault-harness accounting across one cell run. */
struct FaultStats
{
    std::uint64_t powerFails = 0;         ///< machine failures injected
    std::uint64_t coordinatorCrashes = 0; ///< ...of them, mid-decision
    std::uint64_t participantCrashes = 0; ///< ...of them, mid-prepare
    std::uint64_t recoveries = 0;         ///< in-place recoveries priced
    std::uint64_t failovers = 0;          ///< backup promotions priced
    Cycles recoveryStallCycles = 0;       ///< downtime, in-place
    Cycles failoverStallCycles = 0;       ///< downtime, failover
    std::uint64_t decisionRecords = 0;    ///< durable decisions appended
    std::uint64_t presumedAborts = 0;     ///< blocking-window resolutions
    /** Transactions committed after the cell's first injected fault. */
    std::uint64_t committedDespiteFaults = 0;
    std::uint64_t logShipMessages = 0; ///< replication ships + acks
    Cycles logShipCycles = 0;          ///< commit cycles spent shipping
    std::uint64_t messagesLost = 0;    ///< network drops (sendReliable)
    std::uint64_t rpcRetries = 0;      ///< retransmissions after timeout
    Cycles rpcTimeoutStallCycles = 0;  ///< timeout waits (net + votes)

    bool operator==(const FaultStats &) const = default;
};

/** One cell's fault harness (see file comment). */
class FaultInjector : public shard::ClusterFaultDriver
{
  public:
    /**
     * Arm @p cluster with @p params' plan.  @p net_seed seeds the
     * unreliable-network stream (disjoint from the plan stream);
     * @p cross_fraction is the cell's routing fraction, used only to
     * degrade window kinds that could never be consumed.
     */
    FaultInjector(shard::Cluster &cluster, const FaultParams &params,
                  std::uint64_t net_seed, double cross_fraction);

    const FaultStats &stats() const { return stats_; }

    // TxFaultHooks
    Cycles sendReliable(unsigned src, unsigned dst,
                        std::uint64_t bytes) override;
    Cycles persistDecision(unsigned home, CoreId core) override;
    bool coordinatorCrashArmed(unsigned home) override;
    void failCoordinator(unsigned home, unsigned peer,
                         CoreId core) override;
    bool participantCrashArmed(unsigned peer) override;
    void failParticipant(unsigned peer, CoreId core) override;
    Cycles voteTimeout() override;
    Cycles shipCommit(unsigned machine, CoreId core) override;

    // Slot loop
    void atSlotStart() override;
    void atRunEnd() override;

  private:
    /** A window fault armed for one machine, pending consumption. */
    struct Armed
    {
        bool set = false;
        FaultKind kind = FaultKind::PowerFail;
    };

    /** Power-fail machine @p m, price its downtime, absorb faults that
     *  fall inside it.  @return the cycle the machine is back up. */
    Cycles failMachine(unsigned m);

    /** Snapshot commit counters at the machine's first fault, so the
     *  committed-despite-faults delta has a defined base. */
    void noteFirstFault(unsigned m);

    shard::Cluster &cluster_;
    FaultPlan plan_;
    bool replicate_ = false;
    double crossFraction_ = 0;
    Cycles recoveryCost_ = 0;
    Cycles failoverCost_ = 0;
    Cycles voteTimeout_ = 0;
    std::vector<Armed> armed_;
    std::vector<bool> hadFault_;
    std::vector<std::uint64_t> firstFaultCommits_;
    FaultStats stats_;
};

} // namespace ssp::fault

#endif // SSP_FAULT_FAULT_INJECTOR_HH
