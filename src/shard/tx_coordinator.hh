/**
 * @file
 * Two-phase commit for cross-shard transactions.
 *
 * A cross-shard transaction is one client operation executed as a pair
 * of shard-local transactions — one on the coordinator's home shard,
 * one on a participant shard — committed atomically:
 *
 *   1. The home operation executes and validates against the home
 *      shard's ConflictManager (first-committer-wins, exactly the
 *      single-machine arbitration).  A home conflict aborts before any
 *      network round is spent.
 *   2. PREPARE fans out to the participant.  The participant executes
 *      its operation, validates against its own ConflictManager, and —
 *      on success — persists through its backend *inside the prepare
 *      window*: the backend commit is the durable prepare record, so a
 *      power failure after the vote recovers to the validated outcome.
 *      A participant conflict votes no; both branches roll back
 *      (presumed abort — no decision message is needed).
 *   3. The commit vote travels back while the coordinator persists its
 *      own branch; the decision lands at whichever finishes last (the
 *      difference is the coordinator stall), and the COMMIT decision
 *      fans back to the participant.
 *
 * Aborts are surfaced by throwing ShardTxAbort through both shards'
 * runOp frames after their backends rolled back — so neither workload's
 * host-side reference model sees the aborted attempt, and the retry is
 * a fresh client request.  Single-shard transactions never enter this
 * file's machinery: runSingleShard is a plain runOp with no hook
 * installed, cycle-identical to the single-machine path.
 *
 * Modeling note: in the default (reliable) mode the participant's
 * prepare record is modeled as its full backend commit (redo/undo/SSP
 * publication), which is what makes prepared state durable.  With fault
 * hooks installed (setFaultHooks) the protocol switches to the *logged*
 * mode: the participant's prepare stays volatile, the coordinator's own
 * backend commit plus a durable decision record (persistDecision) form
 * the single commit point, and messages travel over the unreliable
 * sendReliable path.  A coordinator crash between collecting votes and
 * persisting the decision — the classic 2PC blocking window — then
 * resolves by presumed abort: nothing is durable anywhere, the
 * participant drops its open branch, and on recovery it re-queries the
 * coordinator's decision log (a priced round trip) instead of blocking.
 */

#ifndef SSP_SHARD_TX_COORDINATOR_HH
#define SSP_SHARD_TX_COORDINATOR_HH

#include <cstdint>
#include <exception>
#include <functional>

#include "shard/cluster.hh"
#include "workloads/workload.hh"

namespace ssp::shard
{

/**
 * Global abort of a cross-shard transaction: thrown after every open
 * branch rolled back through its backend, unwinding both runOp frames
 * before any reference model is updated.
 */
class ShardTxAbort : public std::exception
{
  public:
    const char *
    what() const noexcept override
    {
        return "cross-shard transaction aborted";
    }
};

/**
 * Fault-injection surface of the logged 2PC mode.  One implementation
 * (fault::FaultInjector) owns the cell's FaultPlan and the recovery
 * pricing; the coordinator only asks *whether* a window fault is armed
 * and delegates the machine failure itself.  All hooks are invoked
 * deterministically from the transaction's own execution order.
 */
class TxFaultHooks
{
  public:
    virtual ~TxFaultHooks() = default;

    /** Price one 2PC message over the unreliable network. */
    virtual Cycles sendReliable(unsigned src, unsigned dst,
                                std::uint64_t bytes) = 0;

    /** Cycles to append + flush the durable decision record on
     *  machine @p home's coordinator log. */
    virtual Cycles persistDecision(unsigned home, CoreId core) = 0;

    /** Cycles to synchronously ship one commit's log records to the
     *  backup of @p machine (0 when replication is off). */
    virtual Cycles shipCommit(unsigned machine, CoreId core) = 0;

    /** True if a CoordinatorCrash is armed for machine @p home. */
    virtual bool coordinatorCrashArmed(unsigned home) = 0;

    /** Fail the coordinator @p home inside the blocking window: power
     *  the machine down, price its recovery, and price @p peer's
     *  post-recovery decision-log query round trip. */
    virtual void failCoordinator(unsigned home, unsigned peer,
                                 CoreId core) = 0;

    /** True if a ParticipantCrash is armed for machine @p peer. */
    virtual bool participantCrashArmed(unsigned peer) = 0;

    /** Fail the participant @p peer before its vote departs. */
    virtual void failParticipant(unsigned peer, CoreId core) = 0;

    /** Cycles the coordinator waits before presuming a silent
     *  participant dead (the vote timeout). */
    virtual Cycles voteTimeout() = 0;
};

/** 2PC accounting across one cluster run. */
struct ShardTxStats
{
    std::uint64_t singleShardTxs = 0;   ///< fast-path commits
    std::uint64_t crossShardTxs = 0;    ///< 2PC commits
    std::uint64_t prepareRoundTrips = 0;///< prepare/vote rounds completed
    std::uint64_t crossShardAborts = 0; ///< global aborts (any shard)
    Cycles coordinatorStallCycles = 0;  ///< decision waits on the vote

    bool operator==(const ShardTxStats &) const = default;
};

/** Drives single- and cross-shard transactions over a Cluster. */
class TxCoordinator
{
  public:
    explicit TxCoordinator(Cluster &cluster) : cluster_(cluster) {}

    /**
     * Single-shard fast path: one plain runOp on @p home — no hook, no
     * network, no 2PC state; cycle-identical to the single-machine
     * driver dispatching the same operation.
     */
    void runSingleShard(unsigned home, CoreId core);

    /**
     * One cross-shard attempt: home operation on @p home, participant
     * operation on @p peer, committed via 2PC.  Throws ShardTxAbort on
     * a global abort (all branches already rolled back).
     */
    void tryCrossShard(unsigned home, unsigned peer, CoreId core);

    /**
     * Cross-shard transaction with retries: attempts until one commits,
     * charging the home core the conflict manager's abort penalty and
     * exponential backoff per failed attempt.  Each retry is a fresh
     * client request (new draws), so progress does not depend on the
     * conflicting footprint staying fixed.
     */
    void runCrossShard(unsigned home, unsigned peer, CoreId core);

    const ShardTxStats &stats() const { return stats_; }

    /**
     * Fault-injection hook (tests): invoked with the participant's
     * shard index immediately after its prepare record persisted,
     * before the vote returns — the window where a participant power
     * failure must recover to the validated outcome.
     */
    void
    setPreparedHook(std::function<void(unsigned peer)> hook)
    {
        preparedHook_ = std::move(hook);
    }

    /**
     * Switch cross-shard transactions to the logged fault mode (null
     * restores the default reliable protocol).  Installed by the fault
     * harness only — every non-fault cell runs with this unset, on the
     * byte-identical PR 9 code path.
     */
    void setFaultHooks(TxFaultHooks *hooks) { faultHooks_ = hooks; }

  private:
    friend class CoordinatorHook;
    friend class ParticipantHook;
    friend class LoggedCoordinatorHook;
    friend class LoggedParticipantHook;

    Cluster &cluster_;
    ShardTxStats stats_;
    std::function<void(unsigned peer)> preparedHook_;
    TxFaultHooks *faultHooks_ = nullptr;
};

} // namespace ssp::shard

#endif // SSP_SHARD_TX_COORDINATOR_HH
