#include "workloads/vacation.hh"

#include "common/logging.hh"

namespace ssp
{

namespace
{

std::uint64_t
hashId(std::uint64_t id)
{
    return (id * 0xc6a4a7935bd1e995ull) >> 13;
}

/** Model key combining table and tuple id. */
std::uint64_t
modelKey(unsigned table, std::uint64_t id)
{
    return (static_cast<std::uint64_t>(table) << 56) | id;
}

} // namespace

VacationWorkload::VacationWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                                   const VacationParams &params,
                                   std::uint64_t seed)
    : Workload(be, alloc), params_(params), rng_(seed)
{
    ssp_assert((params.buckets & (params.buckets - 1)) == 0,
               "bucket count must be a power of two");
}

Addr
VacationWorkload::tableBucket(unsigned table, std::uint64_t id) const
{
    return tables_[table] +
           (hashId(id) & (params_.buckets - 1)) * sizeof(std::uint64_t);
}

Addr
VacationWorkload::custBucket(std::uint64_t id) const
{
    return custTable_ +
           (hashId(id) & (params_.buckets - 1)) * sizeof(std::uint64_t);
}

void
VacationWorkload::populate()
{
    const std::uint64_t zero = 0;
    for (unsigned t = 0; t < 3; ++t) {
        tables_[t] = alloc_->allocate(
            params_.buckets * sizeof(std::uint64_t), kLineSize);
        for (std::uint64_t b = 0; b < params_.buckets; ++b) {
            backend().storeRaw(tables_[t] + b * sizeof(std::uint64_t),
                               &zero, sizeof(zero));
        }
    }
    custTable_ = alloc_->allocate(params_.buckets * sizeof(std::uint64_t),
                                 kLineSize);
    for (std::uint64_t b = 0; b < params_.buckets; ++b) {
        backend().storeRaw(custTable_ + b * sizeof(std::uint64_t), &zero,
                           sizeof(zero));
    }

    // Populate resource tuples and customers with raw stores (the
    // initial database image, not transactional work).
    for (unsigned t = 0; t < 3; ++t) {
        for (std::uint64_t id = 0; id < params_.relations; ++id) {
            const Addr rec = alloc_->allocate(kResSize, 8);
            const std::uint64_t price = 100 + (hashId(id ^ t) % 400);
            const std::uint64_t total = 50 + (hashId(id + t) % 50);
            const Addr head_addr = tableBucket(t, id);
            std::uint64_t head = 0;
            backend().loadRaw(head_addr, &head, sizeof(head));
            backend().storeRaw(rec + 0, &id, 8);
            backend().storeRaw(rec + 8, &price, 8);
            backend().storeRaw(rec + 16, &total, 8);
            backend().storeRaw(rec + 24, &total, 8); // free == total
            backend().storeRaw(rec + 32, &head, 8);
            backend().storeRaw(head_addr, &rec, 8);
            freeModel_[modelKey(t, id)] = total;
        }
    }
    for (std::uint64_t id = 0; id < params_.customers; ++id) {
        const Addr rec = alloc_->allocate(kCustSize, 8);
        const std::uint64_t zero64 = 0;
        const Addr head_addr = custBucket(id);
        std::uint64_t head = 0;
        backend().loadRaw(head_addr, &head, sizeof(head));
        backend().storeRaw(rec + 0, &id, 8);
        backend().storeRaw(rec + 8, &zero64, 8);  // bill
        backend().storeRaw(rec + 16, &zero64, 8); // reservation list
        backend().storeRaw(rec + 24, &head, 8);
        backend().storeRaw(head_addr, &rec, 8);
        billModel_[id] = 0;
    }
}

Addr
VacationWorkload::findResource(CoreId c, unsigned table, std::uint64_t id)
{
    Addr rec = heap_.load64(c, tableBucket(table, id));
    while (rec != 0 && heap_.load64(c, rec + 0) != id)
        rec = heap_.load64(c, rec + 32);
    return rec;
}

Addr
VacationWorkload::findCustomer(CoreId c, std::uint64_t id)
{
    Addr rec = heap_.load64(c, custBucket(id));
    while (rec != 0 && heap_.load64(c, rec + 0) != id)
        rec = heap_.load64(c, rec + 24);
    return rec;
}

void
VacationWorkload::runOp(CoreId core)
{
    // All RNG draws happen before the transaction so an aborted
    // attempt replays the identical query mix (same draw order and
    // count as the original interleaved form).
    const std::uint64_t cust_id = rng_.nextBounded(params_.customers);
    struct Query
    {
        unsigned table;
        std::uint64_t id;
    };
    std::vector<Query> queries(params_.queriesPerTx);
    for (Query &q : queries) {
        q.table = static_cast<unsigned>(rng_.nextBounded(3));
        q.id = rng_.nextBounded(params_.relations);
    }

    Addr best = 0;
    std::uint64_t best_price = 0;
    unsigned best_table = 0;
    std::uint64_t best_id = 0;

    runTx(core, [&] {
        const Addr cust = findCustomer(core, cust_id);
        ssp_assert(cust != 0, "customer disappeared");

        // Query phase: examine several resources, remember the
        // cheapest available one (reads only — the bulk of the
        // transaction).
        best = 0;
        best_price = ~std::uint64_t{0};
        for (const Query &q : queries) {
            const Addr rec = findResource(core, q.table, q.id);
            if (rec == 0)
                continue;
            const std::uint64_t price = heap_.load64(core, rec + 8);
            const std::uint64_t free_seats = heap_.load64(core, rec + 24);
            if (free_seats > 0 && price < best_price) {
                best = rec;
                best_price = price;
                best_table = q.table;
                best_id = q.id;
            }
        }

        // Nothing available: read-only transaction.
        if (best == 0)
            return;

        // Update phase: take a seat, append a reservation record, bill.
        const std::uint64_t free_seats = heap_.load64(core, best + 24);
        heap_.store64(core, best + 24, free_seats - 1);

        const Addr rsv = alloc_->allocate(kRsvSize, 8);
        const Addr rsv_head = heap_.load64(core, cust + 16);
        heap_.store64(core, rsv + 0, best);
        heap_.store64(core, rsv + 8, best_price);
        heap_.store64(core, rsv + 16, rsv_head);
        heap_.store64(core, cust + 16, rsv);

        const std::uint64_t bill = heap_.load64(core, cust + 8);
        heap_.store64(core, cust + 8, bill + best_price);
    });

    if (best == 0)
        return;
    freeModel_[modelKey(best_table, best_id)] -= 1;
    billModel_[cust_id] += best_price;
    ++reservations_;
}

bool
VacationWorkload::verify()
{
    // Resource availability must match the model.
    for (unsigned t = 0; t < 3; ++t) {
        for (std::uint64_t b = 0; b < params_.buckets; ++b) {
            Addr rec =
                heap_.raw64(tables_[t] + b * sizeof(std::uint64_t));
            while (rec != 0) {
                const std::uint64_t id = heap_.raw64(rec + 0);
                if (heap_.raw64(rec + 24) != freeModel_[modelKey(t, id)])
                    return false;
                rec = heap_.raw64(rec + 32);
            }
        }
    }
    // Customer bills must match, and each reservation chain must sum to
    // the bill.
    for (std::uint64_t b = 0; b < params_.buckets; ++b) {
        Addr rec = heap_.raw64(custTable_ + b * sizeof(std::uint64_t));
        while (rec != 0) {
            const std::uint64_t id = heap_.raw64(rec + 0);
            const std::uint64_t bill = heap_.raw64(rec + 8);
            if (bill != billModel_[id])
                return false;
            std::uint64_t sum = 0;
            Addr rsv = heap_.raw64(rec + 16);
            while (rsv != 0) {
                sum += heap_.raw64(rsv + 8);
                rsv = heap_.raw64(rsv + 16);
            }
            if (sum != bill)
                return false;
            rec = heap_.raw64(rec + 24);
        }
    }
    return true;
}

} // namespace ssp
