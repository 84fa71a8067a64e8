/**
 * @file
 * REDO-LOG: a DHTM-style hardware redo-logging baseline (paper section
 * 5.1; Joshi et al., ISCA'18).
 *
 * Semantics: atomic stores are buffered volatile (the L1 holds the
 * speculative version; reads of the write set are redirected to it).
 * Redo records stream to NVRAM *asynchronously* — stores do not stall.
 * A log buffer predicts the final value of each line, so one record per
 * distinct modified line is written.  Commit stalls only until the log
 * (plus commit marker) is durable; the in-place data write-back happens
 * after the commit acknowledgment, overlapping with subsequent
 * execution, which is DHTM's headline optimization.  Recovery replays
 * the redo records of committed transactions.
 */

#ifndef SSP_BASELINES_REDO_LOG_HH
#define SSP_BASELINES_REDO_LOG_HH

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/baseline_base.hh"
#include "baselines/persist_log.hh"

namespace ssp
{

/** The hardware redo-logging design. */
class RedoLogBackend : public BaselineBase
{
  public:
    explicit RedoLogBackend(const SspConfig &cfg);

    std::unique_ptr<AtomicityBackend> clone() const override;
    const char *name() const override { return "REDO-LOG"; }
    void store(CoreId core, Addr vaddr, const void *buf,
               std::uint64_t size) override;
    void commit(CoreId core) override;
    void abort(CoreId core) override;
    void recover() override;
    std::uint64_t loggingWrites() const override;

    /**
     * Test hook: run only the durability half of commit (log flush +
     * marker), without applying data in place.  Crashing between the two
     * phases exercises the redo-replay recovery path.
     */
    void commitPhase1(CoreId core);

    /** Test hook: the in-place apply half of commit. */
    void commitPhase2(CoreId core);

    PersistLog &log(CoreId core) { return logs_[core]; }

  protected:
    void onCrash() override;
    void addCores() override;
    bool redirectLoad(CoreId core, Addr line_vaddr, std::uint64_t offset,
                      void *buf, std::uint64_t size) override;

  private:
    using LineImage = std::array<std::uint8_t, kLineSize>;

    void storeLine(CoreId core, Addr vaddr, const void *buf,
                   std::uint64_t size);

    /** Per-core speculative write buffer: line vaddr -> new contents. */
    std::vector<std::unordered_map<Addr, LineImage>> writeBuf_;
    /** Cores that completed phase 1 but not yet phase 2. */
    std::vector<bool> phase1Done_;
    std::vector<PersistLog> logs_;
};

} // namespace ssp

#endif // SSP_BASELINES_REDO_LOG_HH
