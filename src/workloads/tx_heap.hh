/**
 * @file
 * Typed accessors over an AtomicityBackend: the thin layer the
 * persistent data structures use to read and write 64-bit fields and
 * byte ranges at persistent virtual addresses, inside or outside
 * failure-atomic sections.
 */

#ifndef SSP_WORKLOADS_TX_HEAP_HH
#define SSP_WORKLOADS_TX_HEAP_HH

#include <cstdint>

#include "core/backend.hh"

namespace ssp
{

/** Convenience wrapper; stateless besides the backend it drives. */
class TxHeap
{
  public:
    explicit TxHeap(AtomicityBackend &be) : be_(&be) {}

    /** Timed 64-bit load. */
    std::uint64_t
    load64(CoreId core, Addr addr)
    {
        std::uint64_t v = 0;
        be_->load(core, addr, &v, sizeof(v));
        return v;
    }

    /** Timed failure-atomic 64-bit store (must be inside a tx). */
    void
    store64(CoreId core, Addr addr, std::uint64_t v)
    {
        be_->store(core, addr, &v, sizeof(v));
    }

    /** Timed byte-range load. */
    void
    loadBytes(CoreId core, Addr addr, void *buf, std::uint64_t size)
    {
        be_->load(core, addr, buf, size);
    }

    /** Timed failure-atomic byte-range store. */
    void
    storeBytes(CoreId core, Addr addr, const void *buf, std::uint64_t size)
    {
        be_->store(core, addr, buf, size);
    }

    /** Untimed functional read (verification only). */
    std::uint64_t
    raw64(Addr addr)
    {
        std::uint64_t v = 0;
        be_->loadRaw(addr, &v, sizeof(v));
        return v;
    }

    AtomicityBackend &backend() { return *be_; }

  private:
    AtomicityBackend *be_;
};

} // namespace ssp

#endif // SSP_WORKLOADS_TX_HEAP_HH
