/**
 * @file
 * Zero-filled arrays whose untouched pages cost address space only.
 *
 * The simulator's big flat arrays (a 96 MiB L3's tag and LRU arrays,
 * 12 MiB each) stay mostly zero for a whole cell.  Below 1 MiB an array
 * comes from calloc; from 1 MiB up it is its own private anonymous
 * mmap, released with munmap, so the kernel hands back zero pages that
 * are only backed once written.  calloc alone does not give that at
 * this size: freeing one mmapped chunk raises glibc's dynamic mmap
 * threshold, after which every later large calloc is carved from the
 * thread's arena and memsets all of its bytes.
 *
 * A fresh mapping pays one page fault per page it touches, several
 * times what a memset of the page costs.  So an owner that can restore
 * its array to all zero cheaply (a cache knows which chunks it filled)
 * hands it back with recycle(): the thread keeps a few such mappings
 * and serves its next allocation of the same size from them, with
 * their pages already in place.
 */

#ifndef SSP_COMMON_ZEROED_ARRAY_HH
#define SSP_COMMON_ZEROED_ARRAY_HH

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace ssp
{

/** @{ The allocator behind ZeroedArray (see file doc).  recycleZeroed
 *  frees @p p, which the caller has restored to all zero, keeping a
 *  mapping for the thread's next allocZeroed of the same size. */
void *allocZeroed(std::size_t bytes);
void freeZeroed(void *p, std::size_t bytes) noexcept;
void recycleZeroed(void *p, std::size_t bytes) noexcept;
/** @} */

/** A fixed-size, zero-initialized array of trivially copyable T. */
template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    ZeroedArray() = default;

    explicit ZeroedArray(std::size_t n)
        : data_(static_cast<T *>(allocZeroed(n * sizeof(T)))), size_(n)
    {
    }

    /** A full copy (an owner that knows which ranges are still zero
     *  copies just those with copyRange instead). */
    ZeroedArray(const ZeroedArray &other) : ZeroedArray(other.size_)
    {
        copyRange(other, 0, size_);
    }

    ZeroedArray(ZeroedArray &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {
    }

    ZeroedArray &
    operator=(ZeroedArray &&other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        return *this;
    }

    ~ZeroedArray() { freeZeroed(data_, size_ * sizeof(T)); }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    std::size_t size() const { return size_; }

    /** Release the array, which the caller has restored to all zero,
     *  for reuse (see file doc); it is empty afterwards. */
    void
    recycle() noexcept
    {
        recycleZeroed(std::exchange(data_, nullptr),
                      std::exchange(size_, 0) * sizeof(T));
    }

    /** Zero elements [@p first, @p first + @p count). */
    void
    zeroRange(std::size_t first, std::size_t count)
    {
        if (count != 0)
            std::memset(data_ + first, 0, count * sizeof(T));
    }

    /** Copy elements [@p first, @p first + @p count) of @p src into the
     *  same positions here (the arrays must be the same size). */
    void
    copyRange(const ZeroedArray &src, std::size_t first, std::size_t count)
    {
        if (count != 0)
            std::memcpy(data_ + first, src.data_ + first,
                        count * sizeof(T));
    }

  private:
    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace ssp

#endif // SSP_COMMON_ZEROED_ARRAY_HH
