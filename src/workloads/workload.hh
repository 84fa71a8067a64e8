/**
 * @file
 * The workload interface the driver and benches run against.
 *
 * Each workload wraps a persistent data structure built over an
 * AtomicityBackend; one operation is one durable transaction (the
 * paper's microbenchmarks wrap each insert/delete/swap in a transaction,
 * section 5.1).  Workloads keep a host-side reference model so their
 * contents can be verified functionally after a run or after a crash.
 */

#ifndef SSP_WORKLOADS_WORKLOAD_HH
#define SSP_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/backend.hh"
#include "workloads/persist_alloc.hh"
#include "workloads/tx_heap.hh"

namespace ssp
{

class Workload;

/**
 * Commit-control hook for distributed transactions (src/shard/).  When
 * installed, runTx executes begin + body once and then hands the commit
 * decision to the hook instead of running the local
 * validate/commit-or-retry loop: the hook must either commit the open
 * transaction (possibly after cross-shard coordination) or abort it
 * through the backend and throw, so the exception unwinds out of runOp
 * before any host-side reference model is touched.  Without a hook the
 * single-machine path is untouched.
 */
class TxControlHook
{
  public:
    virtual ~TxControlHook() = default;

    /** @p w's transaction on @p core has executed its body and is open
     *  (begun, unvalidated).  Commit it or abort-and-throw. */
    virtual void onExecuted(Workload &w, CoreId core) = 0;
};

/** One benchmark workload bound to a backend. */
class Workload
{
  public:
    Workload(AtomicityBackend &be, PersistAlloc &alloc)
        : heap_(be), alloc_(&alloc)
    {
    }
    virtual ~Workload() = default;

    Workload &operator=(const Workload &) = delete;

    /**
     * A copy of this workload's full state — heap layout, reference
     * model, key and operation streams — driving @p be and allocating
     * from @p alloc (copies of this workload's backend and allocator).
     */
    virtual std::unique_ptr<Workload> clone(AtomicityBackend &be,
                                            PersistAlloc &alloc) const = 0;

    /** Workload name as printed in the paper's figures. */
    virtual const char *name() const = 0;

    /**
     * Populate the initial state (populate(): ordinary transactions on
     * core 0; the driver resets measurement counters afterwards), with
     * the machine's conflict tracking paused throughout and restored on
     * return or throw.
     *
     * Pausing is exact.  The prefill runs on core 0 alone and validation
     * counts only peer records, so every setup validation passes either
     * way.  Every run path opens with a barrier (the round-robin start
     * barrier, serve's syncClocks) that lifts each core's next begin
     * point to at least every setup commit point, and a validation
     * window is (begin, now] — so no setup record could ever fall inside
     * one.  Tracked, those records only sat in the log (the idle cores
     * hold the prune floor at clock 0) for every clone to copy.
     */
    void
    setup()
    {
        const ConflictManager::Pause pause(backend().machine().conflicts());
        populate();
    }

    /** Execute one operation == one durable transaction on @p core. */
    virtual void runOp(CoreId core) = 0;

    /**
     * Functional self-check against the reference model (untimed reads).
     * @return true when the persistent image matches.
     */
    virtual bool verify() = 0;

    AtomicityBackend &backend() { return heap_.backend(); }

    /**
     * Partition the key space per core (the "scale" grid's partitioned
     * scenario); 1 = shared.  Workloads without keys ignore it.
     */
    void setKeyShards(unsigned shards) { keyShards_ = shards; }
    unsigned keyShards() const { return keyShards_; }

    /**
     * Install (or clear, with nullptr) the distributed commit-control
     * hook; not owned.  See TxControlHook.
     */
    void setTxControl(TxControlHook *hook) { txControl_ = hook; }
    TxControlHook *txControl() const { return txControl_; }

  protected:
    Workload(const Workload &) = default;

    /** The prefill setup() runs; see setup(). */
    virtual void populate() = 0;

    /** clone() for the concrete workload type @p Self. */
    template <typename Self>
    std::unique_ptr<Workload>
    cloneAs(AtomicityBackend &be, PersistAlloc &alloc) const
    {
        auto copy = std::make_unique<Self>(static_cast<const Self &>(*this));
        copy->heap_ = TxHeap(be);
        copy->alloc_ = &alloc;
        return copy;
    }

    /**
     * Run one durable operation under concurrent conflict handling:
     * begin, execute @p body, validate against peer commits that landed
     * inside the transaction's window, and commit — or, on a conflict,
     * roll back through the backend's abort machinery, charge the abort
     * penalty plus exponential backoff, and re-execute.
     *
     * @p body must be re-executable: all persistent state is restored
     * by the abort path, so host-side effects (reference-model updates,
     * RNG draws) belong before or after runTx, never inside the body.
     * Allocations made by an aborted attempt leak address space only —
     * the allocator is volatile host metadata (see PersistAlloc).
     *
     * With one core (or detection disabled) validation always passes
     * and this is exactly the old begin/body/commit sequence.
     */
    template <typename BodyFn>
    void
    runTx(CoreId core, BodyFn &&body)
    {
        AtomicityBackend &be = backend();
        if (txControl_ != nullptr) {
            // Distributed commit control: execute once and delegate the
            // commit decision.  The hook either commits here or aborts
            // through the backend and throws past this frame — so an
            // aborted attempt never returns, and the caller's post-runTx
            // reference-model update never happens for it.
            be.begin(core);
            body();
            txControl_->onExecuted(*this, core);
            return;
        }
        Machine &m = be.machine();
        ConflictManager &cm = m.conflicts();
        for (unsigned attempt = 1;; ++attempt) {
            be.begin(core);
            body();
            if (cm.validate(core, m.clock(core))) {
                be.commit(core);
                return;
            }
            be.abort(core);
            m.clock(core) += cm.retryPenalty(core, attempt);
            // Each retry begins after its abort point, so any logged
            // peer commit can defeat it at most once.
            ssp_assert(attempt < 1000, "conflict retry livelock");
        }
    }

    /**
     * Map a drawn key into @p core's shard of [0, key_space).  Identity
     * when sharding is off, so single-core streams are untouched.
     */
    std::uint64_t
    shardKey(CoreId core, std::uint64_t key, std::uint64_t key_space) const
    {
        if (keyShards_ <= 1)
            return key;
        const std::uint64_t shard = key_space / keyShards_;
        ssp_assert(shard > 0,
                   "more key shards than keys: shrink keyShards or grow "
                   "the key space");
        return key % shard + (core % keyShards_) * shard;
    }

    TxHeap heap_;
    PersistAlloc *alloc_;
    unsigned keyShards_ = 1;
    TxControlHook *txControl_ = nullptr;
};

} // namespace ssp

#endif // SSP_WORKLOADS_WORKLOAD_HH
