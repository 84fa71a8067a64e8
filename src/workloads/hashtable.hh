/**
 * @file
 * Persistent chained hashtable microbenchmark (paper Table 3:
 * 3 lines / 3 pages average per transaction).
 *
 * Layout: a bucket array of 8-byte head pointers plus chained nodes
 * {key, value, next}.  Each operation searches for a key and then either
 * deletes it (found) or inserts it (absent), wrapped in one durable
 * transaction — exactly the paper's microbenchmark protocol.
 */

#ifndef SSP_WORKLOADS_HASHTABLE_HH
#define SSP_WORKLOADS_HASHTABLE_HH

#include <unordered_map>

#include "workloads/keygen.hh"
#include "workloads/workload.hh"

namespace ssp
{

/** The hashtable insert/delete microbenchmark. */
class HashWorkload : public Workload
{
  public:
    /**
     * @param buckets Bucket count (power of two).
     * @param key_space Keys are drawn from [0, key_space).
     * @param dist Uniform ("-Rand") or hotspot ("-Zipf").
     */
    HashWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                 std::uint64_t buckets, std::uint64_t key_space,
                 KeyDist dist, std::uint64_t seed);

    std::unique_ptr<Workload>
    clone(AtomicityBackend &be, PersistAlloc &alloc) const override
    {
        return cloneAs<HashWorkload>(be, alloc);
    }

    const char *name() const override
    {
        return dist_ == KeyDist::Zipf ? "Hash-Zipf" : "Hash-Rand";
    }
    void runOp(CoreId core) override;
    bool verify() override;

    std::uint64_t size() const { return reference_.size(); }

    /** Timed lookup (used by examples); returns true when found. */
    bool lookup(CoreId core, std::uint64_t key, std::uint64_t *value);

    /** One insert-or-delete transaction for @p key (test hook). */
    void upsertOrDelete(CoreId core, std::uint64_t key);

  private:
    void populate() override;

    // key, value, next; padded to one cache line (PM idiom).
    static constexpr std::uint64_t kNodeSize = 64;

    Addr bucketAddr(std::uint64_t key) const;
    std::uint64_t bucketOf(std::uint64_t key) const;

    std::uint64_t buckets_;
    KeyGenerator keys_;
    KeyDist dist_;
    Addr table_ = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> reference_;
    std::uint64_t opCounter_ = 0;
};

} // namespace ssp

#endif // SSP_WORKLOADS_HASHTABLE_HH
