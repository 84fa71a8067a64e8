/**
 * @file
 * SPS: swap random pairs of elements in a persistent array (paper
 * Table 3: 2 lines / 2 pages per transaction).  The classic WHISPER/
 * NV-heaps microbenchmark with minimal locality.
 */

#ifndef SSP_WORKLOADS_SPS_HH
#define SSP_WORKLOADS_SPS_HH

#include <vector>

#include "common/rng.hh"
#include "workloads/workload.hh"

namespace ssp
{

/** The array-swap microbenchmark. */
class SpsWorkload : public Workload
{
  public:
    /**
     * @param num_elements Array length (8-byte integers).
     */
    SpsWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                std::uint64_t num_elements, std::uint64_t seed);

    std::unique_ptr<Workload>
    clone(AtomicityBackend &be, PersistAlloc &alloc) const override
    {
        return cloneAs<SpsWorkload>(be, alloc);
    }

    const char *name() const override { return "SPS"; }
    void runOp(CoreId core) override;
    bool verify() override;

  private:
    void populate() override;

    Addr elemAddr(std::uint64_t idx) const;

    std::uint64_t numElements_;
    Rng rng_;
    Addr base_ = 0;
    std::vector<std::uint64_t> reference_;
};

} // namespace ssp

#endif // SSP_WORKLOADS_SPS_HH
