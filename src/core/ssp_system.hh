/**
 * @file
 * SspSystem: the public entry point of the library.
 *
 * Owns the machine, the memory controller and one SSP engine per core,
 * and implements the AtomicityBackend interface used by workloads,
 * tests and benches.  This is the paper's full design: shadow sub-paging
 * with metadata journaling and page consolidation.
 *
 * All three parts are held by value, and the controller and engines
 * are handed the machine on each call, so clone() is the compiler's
 * copy.
 */

#ifndef SSP_CORE_SSP_SYSTEM_HH
#define SSP_CORE_SSP_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/backend.hh"
#include "core/config.hh"
#include "core/machine.hh"
#include "core/ssp_engine.hh"
#include "nvram/mem_controller.hh"

namespace ssp
{

/** The complete SSP design. */
class SspSystem : public AtomicityBackend
{
  public:
    explicit SspSystem(const SspConfig &cfg);

    /** Map a persistent virtual page (identity-mapped heap setup). */
    void mapHeapPage(Vpn vpn, Ppn ppn);

    // AtomicityBackend ----------------------------------------------------
    std::unique_ptr<AtomicityBackend> clone() const override;
    const char *name() const override { return "SSP"; }
    void begin(CoreId core) override;
    void commit(CoreId core) override;
    void abort(CoreId core) override;
    bool inTx(CoreId core) const override;
    void load(CoreId core, Addr vaddr, void *buf,
              std::uint64_t size) override;
    void store(CoreId core, Addr vaddr, const void *buf,
               std::uint64_t size) override;
    void storeRaw(Addr vaddr, const void *buf, std::uint64_t size) override;
    void loadRaw(Addr vaddr, void *buf, std::uint64_t size) override;
    void crash() override;
    void recover() override;
    Machine &machine() override { return machine_; }
    std::uint64_t loggingWrites() const override;
    std::uint64_t committedTxs() const override;
    const TxCharacterization &characterization() const override
    {
        return charz_;
    }

    // SSP-specific accessors ----------------------------------------------
    MemController &controller() { return mc_; }
    SspEngine &engine(CoreId core) { return engines_[core]; }
    const SspConfig &cfg() const { return machine_.cfg(); }

    /**
     * Debug/test hook: the physical location currently holding the
     * *committed* version of @p vaddr, per the durable metadata.
     */
    Addr committedLocation(Addr vaddr);

  private:
    Machine machine_;
    MemController mc_;
    std::vector<SspEngine> engines_;
    TxCharacterization charz_;
};

} // namespace ssp

#endif // SSP_CORE_SSP_SYSTEM_HH
