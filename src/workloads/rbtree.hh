/**
 * @file
 * Persistent red-black tree microbenchmark (paper Table 3: RBTree-Rand
 * averages 12 modified lines across 3 pages per transaction — rotations
 * and recoloring touch many nodes, which is what makes this workload
 * logging-heavy).
 *
 * Node layout (40 bytes): key, value, left, right, parent-and-color
 * (color in bit 0 of the parent word, as pointers are 8-byte aligned).
 * Each operation searches for a key and deletes it if found, inserts it
 * otherwise, inside one durable transaction.
 */

#ifndef SSP_WORKLOADS_RBTREE_HH
#define SSP_WORKLOADS_RBTREE_HH

#include <map>

#include "workloads/keygen.hh"
#include "workloads/workload.hh"

namespace ssp
{

/** The red-black tree insert/delete microbenchmark. */
class RbTreeWorkload : public Workload
{
  public:
    RbTreeWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                   std::uint64_t key_space, KeyDist dist,
                   std::uint64_t seed);

    std::unique_ptr<Workload>
    clone(AtomicityBackend &be, PersistAlloc &alloc) const override
    {
        return cloneAs<RbTreeWorkload>(be, alloc);
    }

    const char *name() const override
    {
        return dist_ == KeyDist::Zipf ? "RBTree-Zipf" : "RBTree-Rand";
    }
    void runOp(CoreId core) override;
    bool verify() override;

    std::uint64_t size() const { return reference_.size(); }

    /** One insert-or-delete transaction for @p key (test hook). */
    void upsertOrDelete(CoreId core, std::uint64_t key);

    /**
     * Structural check: valid BST order, no red node with a red child,
     * equal black height on every path.
     */
    bool invariantsHold();

  private:
    void populate() override;

    // 40 bytes of fields, padded to one cache line (PM idiom).
    static constexpr std::uint64_t kNodeSize = 64;

    // -- typed field access over the backend -----------------------------
    std::uint64_t key(CoreId c, Addr n) { return heap_.load64(c, n); }
    std::uint64_t val(CoreId c, Addr n) { return heap_.load64(c, n + 8); }
    Addr left(CoreId c, Addr n) { return heap_.load64(c, n + 16); }
    Addr right(CoreId c, Addr n) { return heap_.load64(c, n + 24); }
    Addr parent(CoreId c, Addr n)
    {
        return heap_.load64(c, n + 32) & ~std::uint64_t{1};
    }
    bool isRed(CoreId c, Addr n)
    {
        return n != 0 && (heap_.load64(c, n + 32) & 1) != 0;
    }

    void setKey(CoreId c, Addr n, std::uint64_t v)
    {
        heap_.store64(c, n, v);
    }
    void setVal(CoreId c, Addr n, std::uint64_t v)
    {
        heap_.store64(c, n + 8, v);
    }
    void setLeft(CoreId c, Addr n, Addr v) { heap_.store64(c, n + 16, v); }
    void setRight(CoreId c, Addr n, Addr v) { heap_.store64(c, n + 24, v); }
    void
    setParentAndColor(CoreId c, Addr n, Addr p, bool red)
    {
        heap_.store64(c, n + 32, p | (red ? 1 : 0));
    }
    void
    setParent(CoreId c, Addr n, Addr p)
    {
        setParentAndColor(c, n, p, isRed(c, n));
    }
    void
    setColor(CoreId c, Addr n, bool red)
    {
        setParentAndColor(c, n, parent(c, n), red);
    }

    Addr root(CoreId c) { return heap_.load64(c, rootAddr_); }
    void setRoot(CoreId c, Addr n) { heap_.store64(c, rootAddr_, n); }

    // -- tree operations (all inside the caller's transaction) -----------
    void rotateLeft(CoreId c, Addr x);
    void rotateRight(CoreId c, Addr x);
    void insertFixup(CoreId c, Addr z);
    void transplant(CoreId c, Addr u, Addr v);
    void deleteNode(CoreId c, Addr z);
    void deleteFixup(CoreId c, Addr x, Addr x_parent);
    Addr minimum(CoreId c, Addr n);

    // -- verification helpers (untimed raw reads) -------------------------
    Addr rawLeft(Addr n) { return heap_.raw64(n + 16); }
    Addr rawRight(Addr n) { return heap_.raw64(n + 24); }
    bool rawRed(Addr n)
    {
        return n != 0 && (heap_.raw64(n + 32) & 1) != 0;
    }
    int checkSubtree(Addr n, std::uint64_t lo, std::uint64_t hi, bool *ok);

    KeyGenerator keys_;
    KeyDist dist_;
    Addr rootAddr_ = 0;
    std::map<std::uint64_t, std::uint64_t> reference_;
    std::uint64_t opCounter_ = 0;
};

} // namespace ssp

#endif // SSP_WORKLOADS_RBTREE_HH
