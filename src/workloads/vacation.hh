/**
 * @file
 * Vacation-like OLTP emulation (paper section 5.1: the STAMP travel
 * reservation system, four clients; Table 3 reports 4 lines / 3 pages
 * average, 9 pages max per transaction).
 *
 * The system keeps three resource tables (cars, flights, rooms) and a
 * customer table, all persistent chained hashtables of fixed-layout
 * records.  One transaction emulates a reservation: look up a customer,
 * query a handful of resources for price/availability (reads), pick one,
 * decrement its availability, append a reservation record to the
 * customer's list, and update the customer's total bill — mirroring the
 * read-mostly-then-few-updates shape of the original benchmark, where
 * volatile execution (table traversal) dominates over persistence work.
 */

#ifndef SSP_WORKLOADS_VACATION_HH
#define SSP_WORKLOADS_VACATION_HH

#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "workloads/workload.hh"

namespace ssp
{

/** Configuration of the reservation system. */
struct VacationParams
{
    std::uint64_t relations = 4096;  ///< tuples per resource table
    std::uint64_t customers = 2048;  ///< customer count
    unsigned queriesPerTx = 6;       ///< resources examined per tx
    std::uint64_t buckets = 1024;    ///< hash buckets per table
};

/** The Vacation-like OLTP workload. */
class VacationWorkload : public Workload
{
  public:
    VacationWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                     const VacationParams &params, std::uint64_t seed);

    std::unique_ptr<Workload>
    clone(AtomicityBackend &be, PersistAlloc &alloc) const override
    {
        return cloneAs<VacationWorkload>(be, alloc);
    }

    const char *name() const override { return "Vacation"; }
    void runOp(CoreId core) override;
    bool verify() override;

    std::uint64_t reservationsMade() const { return reservations_; }

  private:
    void populate() override;

    // Resource record: id(8) price(8) total(8) free(8) next(8) = 40 B.
    static constexpr std::uint64_t kResSize = 40;
    // Customer record: id(8) bill(8) res_head(8) next(8) = 32 B.
    static constexpr std::uint64_t kCustSize = 32;
    // Reservation node: resource_addr(8) price(8) next(8) = 24 B.
    static constexpr std::uint64_t kRsvSize = 24;

    enum Table { Cars = 0, Flights = 1, Rooms = 2 };

    Addr tableBucket(unsigned table, std::uint64_t id) const;
    Addr custBucket(std::uint64_t id) const;
    Addr findResource(CoreId c, unsigned table, std::uint64_t id);
    Addr findCustomer(CoreId c, std::uint64_t id);

    VacationParams params_;
    Rng rng_;
    Addr tables_[3] = {0, 0, 0};
    Addr custTable_ = 0;
    std::uint64_t reservations_ = 0;

    /** Host-side model: free seats per (table, id) and bills. */
    std::unordered_map<std::uint64_t, std::uint64_t> freeModel_;
    std::unordered_map<std::uint64_t, std::uint64_t> billModel_;
};

} // namespace ssp

#endif // SSP_WORKLOADS_VACATION_HH
