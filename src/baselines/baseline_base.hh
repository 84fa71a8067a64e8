/**
 * @file
 * Shared infrastructure for the logging baselines and the shadow-paging
 * ablation: TLB-timed address translation over the identity-mapped
 * persistent heap, per-core transaction bookkeeping (write set of lines
 * and pages), and the common crash plumbing.
 */

#ifndef SSP_BASELINES_BASELINE_BASE_HH
#define SSP_BASELINES_BASELINE_BASE_HH

#include <memory>
#include <set>
#include <vector>

#include "baselines/persist_log.hh"
#include "core/backend.hh"
#include "core/config.hh"
#include "core/machine.hh"

namespace ssp
{

/** Per-core transaction state common to all baselines. */
struct BaselineTxState
{
    bool inTx = false;
    TxId tid = 0;
    /** Distinct line addresses written by the ongoing transaction. */
    std::set<Addr> lines;
    /** Distinct pages written by the ongoing transaction. */
    std::set<Vpn> pages;

    void
    clear()
    {
        inTx = false;
        lines.clear();
        pages.clear();
    }
};

/**
 * Base class for UNDO-LOG, REDO-LOG and SHADOW.  It and its subclasses
 * hold the machine and their logs by value, handing the logs the
 * machine's bus on each append, so clone() is the compiler's copy.
 */
class BaselineBase : public AtomicityBackend
{
  public:
    explicit BaselineBase(const SspConfig &cfg);

    void widen(unsigned num_cores) final;
    void begin(CoreId core) override;
    bool inTx(CoreId core) const override;
    void load(CoreId core, Addr vaddr, void *buf,
              std::uint64_t size) override;
    void storeRaw(Addr vaddr, const void *buf, std::uint64_t size) override;
    void loadRaw(Addr vaddr, void *buf, std::uint64_t size) override;
    void crash() override;
    Machine &machine() override { return machine_; }
    std::uint64_t committedTxs() const override { return committedTxs_; }
    const TxCharacterization &characterization() const override
    {
        return charz_;
    }

    const SspConfig &cfg() const { return machine_.cfg(); }

  protected:
    /**
     * Timed translation through the TLB (page walk on a miss); baselines
     * have no SSP metadata to fetch.
     */
    Ppn translate(CoreId core, Vpn vpn);

    /**
     * Where a load should read line @p line_vaddr from.  The redo
     * baseline redirects reads of lines in the ongoing transaction to
     * its write buffer; others read in place.
     * @return true when the backend supplied the data itself.
     */
    virtual bool redirectLoad(CoreId /*core*/, Addr /*line_vaddr*/,
                              std::uint64_t /*offset*/, void * /*buf*/,
                              std::uint64_t /*size*/)
    {
        return false;
    }

    /** Subclass volatile-state reset on power failure. */
    virtual void onCrash() = 0;

    /**
     * Append the subclass's per-core parts up to cfg().numCores cores;
     * its constructor and widen() both build them through here.
     */
    virtual void addCores() = 0;

    /**
     * Fit @p logs to one region of the log area per core at the
     * machine's core count: existing logs (which must be empty, as they
     * are between transactions) move to their region, missing ones are
     * appended.  The geometry follows the core count, so widen()
     * re-carves it.
     */
    void carvePerCoreLogs(std::vector<PersistLog> &logs,
                          WriteCategory category, bool line_padded) const;

    /** Record a committed transaction's characterization. */
    void noteCommit(CoreId core);

    Machine machine_;
    std::vector<BaselineTxState> tx_;
    TxId nextTid_ = 1;
    std::uint64_t committedTxs_ = 0;
    TxCharacterization charz_;
};

} // namespace ssp

#endif // SSP_BASELINES_BASELINE_BASE_HH
