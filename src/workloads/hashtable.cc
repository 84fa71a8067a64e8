#include "workloads/hashtable.hh"

#include "common/logging.hh"

namespace ssp
{

namespace
{

/** Node field offsets. */
constexpr std::uint64_t kKeyOff = 0;
constexpr std::uint64_t kValOff = 8;
constexpr std::uint64_t kNextOff = 16;

/** Fibonacci hash; good spread for sequential keys. */
std::uint64_t
hashKey(std::uint64_t key)
{
    return (key * 0x9e3779b97f4a7c15ull) >> 17;
}

} // namespace

HashWorkload::HashWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                           std::uint64_t buckets, std::uint64_t key_space,
                           KeyDist dist, std::uint64_t seed)
    : Workload(be, alloc), buckets_(buckets),
      keys_(dist, key_space, seed), dist_(dist)
{
    ssp_assert((buckets & (buckets - 1)) == 0,
               "bucket count must be a power of two");
}

std::uint64_t
HashWorkload::bucketOf(std::uint64_t key) const
{
    return hashKey(key) & (buckets_ - 1);
}

Addr
HashWorkload::bucketAddr(std::uint64_t key) const
{
    return table_ + bucketOf(key) * sizeof(std::uint64_t);
}

void
HashWorkload::populate()
{
    table_ = alloc_->allocate(buckets_ * sizeof(std::uint64_t), kLineSize);
    const std::uint64_t zero = 0;
    for (std::uint64_t b = 0; b < buckets_; ++b) {
        backend().storeRaw(table_ + b * sizeof(std::uint64_t), &zero,
                           sizeof(zero));
    }
    // Pre-populate half of the key space through regular transactions so
    // the measured phase sees a steady-state mix of inserts and deletes.
    const std::uint64_t prefill = keys_.keySpace() / 2;
    for (std::uint64_t i = 0; i < prefill; ++i)
        upsertOrDelete(0, keys_.next());
}

bool
HashWorkload::lookup(CoreId core, std::uint64_t key, std::uint64_t *value)
{
    Addr node = heap_.load64(core, bucketAddr(key));
    while (node != 0) {
        if (heap_.load64(core, node + kKeyOff) == key) {
            if (value != nullptr)
                *value = heap_.load64(core, node + kValOff);
            return true;
        }
        node = heap_.load64(core, node + kNextOff);
    }
    return false;
}

void
HashWorkload::upsertOrDelete(CoreId core, std::uint64_t key)
{
    Addr victim = 0;
    std::uint64_t value = 0;
    runTx(core, [&] {
        victim = 0;

        // Search the chain, remembering the predecessor link.
        Addr prev_link = bucketAddr(key);
        Addr node = heap_.load64(core, prev_link);
        while (node != 0 && heap_.load64(core, node + kKeyOff) != key) {
            prev_link = node + kNextOff;
            node = heap_.load64(core, node + kNextOff);
        }

        if (node != 0) {
            // Found: delete by unlinking.
            const Addr next = heap_.load64(core, node + kNextOff);
            heap_.store64(core, prev_link, next);
            victim = node;
        } else {
            // Absent: insert at the head of the bucket.
            value = key * 3 + 1 + opCounter_;
            const Addr fresh = alloc_->allocate(kNodeSize, kLineSize);
            const Addr head = heap_.load64(core, bucketAddr(key));
            heap_.store64(core, fresh + kKeyOff, key);
            heap_.store64(core, fresh + kValOff, value);
            heap_.store64(core, fresh + kNextOff, head);
            heap_.store64(core, bucketAddr(key), fresh);
        }
    });
    if (victim != 0) {
        alloc_->free(victim, kNodeSize);
        reference_.erase(key);
    } else {
        reference_[key] = value;
    }
    ++opCounter_;
}

void
HashWorkload::runOp(CoreId core)
{
    upsertOrDelete(core, shardKey(core, keys_.next(), keys_.keySpace()));
}

bool
HashWorkload::verify()
{
    // Every reference key must be present with the right value, and the
    // chains must contain no extras.
    std::uint64_t found = 0;
    for (std::uint64_t b = 0; b < buckets_; ++b) {
        Addr node = heap_.raw64(table_ + b * sizeof(std::uint64_t));
        while (node != 0) {
            const std::uint64_t key = heap_.raw64(node + kKeyOff);
            const std::uint64_t val = heap_.raw64(node + kValOff);
            auto it = reference_.find(key);
            if (it == reference_.end() || it->second != val)
                return false;
            if (bucketOf(key) != b)
                return false;
            ++found;
            node = heap_.raw64(node + kNextOff);
        }
    }
    return found == reference_.size();
}

} // namespace ssp
