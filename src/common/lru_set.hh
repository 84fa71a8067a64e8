/**
 * @file
 * A set of keys in least-recently-used order, copyable by value.
 *
 * The nodes of the recency list live in one vector and link to each
 * other by index, and the key map stores indices, so the compiler's
 * copy of the set is a working set: nothing in it points into the
 * original.  Used by the SSP cache's hot-slot model and the directory's
 * per-tile snoop filters.
 */

#ifndef SSP_COMMON_LRU_SET_HH
#define SSP_COMMON_LRU_SET_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"

namespace ssp
{

/** Keys ordered from most to least recently touched (see file doc). */
template <typename Key>
class LruSet
{
  public:
    bool contains(const Key &key) const { return index_.contains(key); }
    std::size_t size() const { return index_.size(); }

    /**
     * Make @p key the most recently used, inserting it when absent.
     * @return true when @p key was already present.
     */
    bool
    touch(const Key &key)
    {
        auto it = index_.find(key);
        if (it != index_.end()) {
            unlink(it->second);
            pushFront(it->second);
            return true;
        }
        std::uint32_t n;
        if (free_.empty()) {
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{key});
        } else {
            n = free_.back();
            free_.pop_back();
            nodes_[n].key = key;
        }
        pushFront(n);
        index_.emplace(key, n);
        return false;
    }

    /** Remove and return the least recently used key. */
    Key
    popLru()
    {
        ssp_assert(tail_ != kNone, "popLru on an empty LruSet");
        const Key key = nodes_[tail_].key;
        erase(key);
        return key;
    }

    /** Remove @p key; returns true when it was present. */
    bool
    erase(const Key &key)
    {
        auto it = index_.find(key);
        if (it == index_.end())
            return false;
        unlink(it->second);
        free_.push_back(it->second);
        index_.erase(it);
        return true;
    }

    void
    clear()
    {
        nodes_.clear();
        free_.clear();
        index_.clear();
        head_ = tail_ = kNone;
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Node
    {
        Key key;
        std::uint32_t prev = kNone; ///< toward the most recent end
        std::uint32_t next = kNone; ///< toward the least recent end
    };

    void
    unlink(std::uint32_t n)
    {
        const Node &node = nodes_[n];
        (node.prev == kNone ? head_ : nodes_[node.prev].next) = node.next;
        (node.next == kNone ? tail_ : nodes_[node.next].prev) = node.prev;
    }

    void
    pushFront(std::uint32_t n)
    {
        nodes_[n].prev = kNone;
        nodes_[n].next = head_;
        (head_ == kNone ? tail_ : nodes_[head_].prev) = n;
        head_ = n;
    }

    std::vector<Node> nodes_;
    /** Indices of nodes_ entries no key uses. */
    std::vector<std::uint32_t> free_;
    std::unordered_map<Key, std::uint32_t> index_;
    std::uint32_t head_ = kNone;
    std::uint32_t tail_ = kNone;
};

} // namespace ssp

#endif // SSP_COMMON_LRU_SET_HH
