#include "workloads/btree.hh"

#include "common/logging.hh"

namespace ssp
{

BTreeWorkload::BTreeWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                             std::uint64_t key_space, KeyDist dist,
                             std::uint64_t seed)
    : Workload(be, alloc), keys_(dist, key_space, seed), dist_(dist)
{
}

Addr
BTreeWorkload::newNode(CoreId c, bool leaf)
{
    const Addr n = alloc_->allocate(kNodeSize, kLineSize);
    heap_.store64(c, n + kIsLeafOff, leaf ? 1 : 0);
    heap_.store64(c, n + kCountOff, 0);
    heap_.store64(c, n + kNextOff, 0);
    return n;
}

void
BTreeWorkload::populate()
{
    rootAddr_ = alloc_->allocate(sizeof(std::uint64_t), 8);
    const std::uint64_t zero = 0;
    backend().storeRaw(rootAddr_, &zero, sizeof(zero));

    // Create an empty root leaf inside a transaction.
    AtomicityBackend &be = backend();
    be.begin(0);
    const Addr leaf = newNode(0, true);
    heap_.store64(0, rootAddr_, leaf);
    be.commit(0);

    const std::uint64_t prefill = keys_.keySpace() / 2;
    for (std::uint64_t i = 0; i < prefill; ++i)
        upsertOrDelete(0, keys_.next());
}

Addr
BTreeWorkload::findLeaf(CoreId c, std::uint64_t key,
                        std::vector<Addr> *path)
{
    Addr n = root(c);
    while (!isLeaf(c, n)) {
        if (path != nullptr)
            path->push_back(n);
        const unsigned cnt = count(c, n);
        unsigned i = 0;
        while (i < cnt && key >= heap_.load64(c, keyAddr(n, i)))
            ++i;
        n = heap_.load64(c, slotAddr(n, i));
    }
    return n;
}

void
BTreeWorkload::insertInNode(CoreId c, Addr n, std::uint64_t key,
                            std::uint64_t slot, bool leaf)
{
    const unsigned cnt = count(c, n);
    ssp_assert(cnt < kFanout, "insert into a full node");
    unsigned pos = 0;
    while (pos < cnt && heap_.load64(c, keyAddr(n, pos)) < key)
        ++pos;
    // Shift keys and slots right.  In an inner node, slot i+1 belongs to
    // key i, so child pointers shift in the +1 range.
    for (unsigned i = cnt; i > pos; --i) {
        heap_.store64(c, keyAddr(n, i),
                      heap_.load64(c, keyAddr(n, i - 1)));
        const unsigned s = leaf ? i : i + 1;
        heap_.store64(c, slotAddr(n, s),
                      heap_.load64(c, slotAddr(n, s - 1)));
    }
    heap_.store64(c, keyAddr(n, pos), key);
    heap_.store64(c, slotAddr(n, leaf ? pos : pos + 1), slot);
    heap_.store64(c, n + kCountOff, cnt + 1);
}

std::pair<std::uint64_t, Addr>
BTreeWorkload::splitNode(CoreId c, Addr n)
{
    const bool leaf = isLeaf(c, n);
    const unsigned cnt = count(c, n);
    ssp_assert(cnt == kFanout, "splitting a non-full node");
    const unsigned half = kFanout / 2;

    const Addr rhs = newNode(c, leaf);
    std::uint64_t separator;

    if (leaf) {
        // Right half moves; separator is the first right key (copied up).
        for (unsigned i = half; i < cnt; ++i) {
            heap_.store64(c, keyAddr(rhs, i - half),
                          heap_.load64(c, keyAddr(n, i)));
            heap_.store64(c, slotAddr(rhs, i - half),
                          heap_.load64(c, slotAddr(n, i)));
        }
        heap_.store64(c, rhs + kCountOff, cnt - half);
        heap_.store64(c, n + kCountOff, half);
        separator = heap_.load64(c, keyAddr(rhs, 0));
        // Leaf chain.
        heap_.store64(c, rhs + kNextOff, heap_.load64(c, n + kNextOff));
        heap_.store64(c, n + kNextOff, rhs);
    } else {
        // Middle key moves up; right half of keys and children move.
        separator = heap_.load64(c, keyAddr(n, half));
        for (unsigned i = half + 1; i < cnt; ++i) {
            heap_.store64(c, keyAddr(rhs, i - half - 1),
                          heap_.load64(c, keyAddr(n, i)));
        }
        for (unsigned i = half + 1; i <= cnt; ++i) {
            heap_.store64(c, slotAddr(rhs, i - half - 1),
                          heap_.load64(c, slotAddr(n, i)));
        }
        heap_.store64(c, rhs + kCountOff, cnt - half - 1);
        heap_.store64(c, n + kCountOff, half);
    }
    return {separator, rhs};
}

void
BTreeWorkload::insertKey(CoreId c, std::uint64_t key, std::uint64_t value)
{
    std::vector<Addr> path;
    Addr leaf = findLeaf(c, key, &path);

    if (count(c, leaf) == kFanout) {
        // Split bottom-up along the recorded path.
        auto [sep, rhs] = splitNode(c, leaf);
        Addr child_rhs = rhs;
        std::uint64_t up_key = sep;
        bool placed = false;
        while (!placed) {
            if (path.empty()) {
                // New root.
                const Addr nr = newNode(c, false);
                heap_.store64(c, keyAddr(nr, 0), up_key);
                heap_.store64(c, slotAddr(nr, 0),
                              heap_.load64(c, rootAddr_));
                heap_.store64(c, slotAddr(nr, 1), child_rhs);
                heap_.store64(c, nr + kCountOff, 1);
                heap_.store64(c, rootAddr_, nr);
                placed = true;
            } else {
                const Addr parent = path.back();
                path.pop_back();
                if (count(c, parent) < kFanout) {
                    insertInNode(c, parent, up_key, child_rhs, false);
                    placed = true;
                } else {
                    auto [psep, prhs] = splitNode(c, parent);
                    // Route the pending separator into the proper half.
                    if (up_key < psep) {
                        insertInNode(c, parent, up_key, child_rhs, false);
                    } else {
                        insertInNode(c, prhs, up_key, child_rhs, false);
                    }
                    up_key = psep;
                    child_rhs = prhs;
                }
            }
        }
        // Descend again into the correct leaf.
        leaf = findLeaf(c, key, nullptr);
    }
    insertInNode(c, leaf, key, value, true);
}

bool
BTreeWorkload::deleteKey(CoreId c, std::uint64_t key)
{
    const Addr leaf = findLeaf(c, key, nullptr);
    const unsigned cnt = count(c, leaf);
    for (unsigned i = 0; i < cnt; ++i) {
        if (heap_.load64(c, keyAddr(leaf, i)) == key) {
            for (unsigned j = i + 1; j < cnt; ++j) {
                heap_.store64(c, keyAddr(leaf, j - 1),
                              heap_.load64(c, keyAddr(leaf, j)));
                heap_.store64(c, slotAddr(leaf, j - 1),
                              heap_.load64(c, slotAddr(leaf, j)));
            }
            heap_.store64(c, leaf + kCountOff, cnt - 1);
            return true;
        }
    }
    return false;
}

bool
BTreeWorkload::lookup(CoreId c, std::uint64_t key, std::uint64_t *value)
{
    const Addr leaf = findLeaf(c, key, nullptr);
    const unsigned cnt = count(c, leaf);
    for (unsigned i = 0; i < cnt; ++i) {
        if (heap_.load64(c, keyAddr(leaf, i)) == key) {
            if (value != nullptr)
                *value = heap_.load64(c, slotAddr(leaf, i));
            return true;
        }
    }
    return false;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
BTreeWorkload::scan(CoreId c, std::uint64_t key, unsigned limit)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    Addr leaf = findLeaf(c, key, nullptr);
    while (leaf != 0 && out.size() < limit) {
        const unsigned cnt = count(c, leaf);
        for (unsigned i = 0; i < cnt && out.size() < limit; ++i) {
            const std::uint64_t k = heap_.load64(c, keyAddr(leaf, i));
            if (k >= key)
                out.emplace_back(k, heap_.load64(c, slotAddr(leaf, i)));
        }
        leaf = heap_.load64(c, leaf + kNextOff);
    }
    return out;
}

void
BTreeWorkload::upsertOrDelete(CoreId c, std::uint64_t key)
{
    bool deleted = false;
    std::uint64_t v = 0;
    runTx(c, [&] {
        deleted = deleteKey(c, key);
        if (!deleted) {
            v = key * 5 + 11 + opCounter_;
            insertKey(c, key, v);
        }
    });
    if (deleted)
        reference_.erase(key);
    else
        reference_[key] = v;
    ++opCounter_;
}

void
BTreeWorkload::runOp(CoreId core)
{
    upsertOrDelete(core, shardKey(core, keys_.next(), keys_.keySpace()));
}

bool
BTreeWorkload::verify()
{
    // Walk the leaf chain from the leftmost leaf and compare the pair
    // sequence with the reference map.
    Addr n = heap_.raw64(rootAddr_);
    if (n == 0)
        return reference_.empty();
    while (heap_.raw64(n + kIsLeafOff) == 0)
        n = heap_.raw64(slotAddr(n, 0));

    auto it = reference_.begin();
    std::uint64_t found = 0;
    while (n != 0) {
        const auto cnt =
            static_cast<unsigned>(heap_.raw64(n + kCountOff));
        std::uint64_t prev = 0;
        for (unsigned i = 0; i < cnt; ++i) {
            const std::uint64_t k = heap_.raw64(keyAddr(n, i));
            if (i > 0 && k <= prev)
                return false; // unsorted leaf
            prev = k;
            if (it == reference_.end())
                return false;
            if (it->first != k || it->second != heap_.raw64(slotAddr(n, i)))
                return false;
            ++it;
            ++found;
        }
        n = heap_.raw64(n + kNextOff);
    }
    return found == reference_.size();
}

} // namespace ssp
