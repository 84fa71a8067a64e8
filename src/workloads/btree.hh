/**
 * @file
 * Persistent B+-tree microbenchmark (paper Table 3: BTree-Rand averages
 * 10 modified lines across 6 pages; the tree's fat nodes give it the
 * spatial locality that lets SSP "nearly eliminate the logging writes"
 * on this workload, section 5.2).
 *
 * Layout: fixed 256-byte nodes (4 cache lines).
 *   header (line 0): is_leaf, count, next-leaf (leaves only)
 *   keys   (line 1): up to 8 keys
 *   slots  (lines 2-3): 8 values (leaf) or 9 children (inner)
 * Deletes remove from the leaf without rebalancing (underfull leaves are
 * tolerated, as in most PM B+-tree implementations); inserts split
 * bottom-up.
 */

#ifndef SSP_WORKLOADS_BTREE_HH
#define SSP_WORKLOADS_BTREE_HH

#include <map>
#include <vector>

#include "workloads/keygen.hh"
#include "workloads/workload.hh"

namespace ssp
{

/** The B+-tree insert/delete microbenchmark. */
class BTreeWorkload : public Workload
{
  public:
    BTreeWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                  std::uint64_t key_space, KeyDist dist, std::uint64_t seed);

    std::unique_ptr<Workload>
    clone(AtomicityBackend &be, PersistAlloc &alloc) const override
    {
        return cloneAs<BTreeWorkload>(be, alloc);
    }

    const char *name() const override
    {
        return dist_ == KeyDist::Zipf ? "BTree-Zipf" : "BTree-Rand";
    }
    void runOp(CoreId core) override;
    bool verify() override;

    std::uint64_t size() const { return reference_.size(); }

    /** One insert-or-delete transaction for @p key (test hook). */
    void upsertOrDelete(CoreId core, std::uint64_t key);

    /** Timed point lookup. */
    bool lookup(CoreId core, std::uint64_t key, std::uint64_t *value);

    /** Timed range scan from @p key, up to @p limit pairs. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    scan(CoreId core, std::uint64_t key, unsigned limit);

  private:
    void populate() override;

    static constexpr unsigned kFanout = 32;  ///< max keys per node
    static constexpr std::uint64_t kNodeSize = 768;

    // Field offsets within a node (keys and slots line-aligned, as a
    // PM-aware B+-tree lays them out to bound flush counts).
    static constexpr std::uint64_t kIsLeafOff = 0;
    static constexpr std::uint64_t kCountOff = 8;
    static constexpr std::uint64_t kNextOff = 16;
    static constexpr std::uint64_t kKeysOff = 64;
    static constexpr std::uint64_t kSlotsOff = 384;

    Addr keyAddr(Addr n, unsigned i) const { return n + kKeysOff + 8 * i; }
    Addr slotAddr(Addr n, unsigned i) const
    {
        return n + kSlotsOff + 8 * i;
    }

    bool isLeaf(CoreId c, Addr n) { return heap_.load64(c, n) != 0; }
    unsigned
    count(CoreId c, Addr n)
    {
        return static_cast<unsigned>(heap_.load64(c, n + kCountOff));
    }

    Addr newNode(CoreId c, bool leaf);

    /** Descend to the leaf for @p key, recording the path. */
    Addr findLeaf(CoreId c, std::uint64_t key, std::vector<Addr> *path);

    /** Insert (key, slot) into a non-full node at sorted position. */
    void insertInNode(CoreId c, Addr n, std::uint64_t key,
                      std::uint64_t slot, bool leaf);

    /** Split @p n, returning {separator key, new right sibling}. */
    std::pair<std::uint64_t, Addr> splitNode(CoreId c, Addr n);

    void insertKey(CoreId c, std::uint64_t key, std::uint64_t value);
    bool deleteKey(CoreId c, std::uint64_t key);

    Addr root(CoreId c) { return heap_.load64(c, rootAddr_); }

    KeyGenerator keys_;
    KeyDist dist_;
    Addr rootAddr_ = 0;
    std::map<std::uint64_t, std::uint64_t> reference_;
    std::uint64_t opCounter_ = 0;
};

} // namespace ssp

#endif // SSP_WORKLOADS_BTREE_HH
