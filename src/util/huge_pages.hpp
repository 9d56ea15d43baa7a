#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace tsb::util {

/// Transparent-huge-page size the big-block path aligns to.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Bytes a huge_alloc(bytes) block really maps: blocks of at least
/// kHugePageBytes round up to a whole number of base (4 KiB) pages, smaller
/// ones are not rounded.
std::size_t huge_alloc_size(std::size_t bytes);

/// Zero-filled storage for the engines' big flat arrays (arena segments,
/// the dedup table, edge-store segments). A block of at least
/// kHugePageBytes is a kHugePageBytes-aligned anonymous mapping whose whole
/// huge pages are advised MADV_HUGEPAGE, so the kernel can back them with
/// 2 MiB pages where transparent huge pages are enabled in "madvise" mode;
/// a partial last huge page stays on base pages so its unused slack never
/// becomes resident. The advice is only a hint: with THP off the mapping
/// behaves as 4 KiB pages. Smaller blocks come from calloc. Throws
/// std::bad_alloc when the memory is unavailable.
void* huge_alloc(std::size_t bytes);

/// Release a huge_alloc block. `bytes` must be the size it was allocated
/// with (it picks the munmap or free path). Null is a no-op.
void huge_free(void* p, std::size_t bytes) noexcept;

/// Owning, fixed-size, zero-initialized array on huge_alloc storage. Only
/// for implicit-lifetime element types whose all-zero bit pattern is a
/// valid value: the elements are never constructed or destroyed.
template <class T>
class HugeArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  HugeArray() = default;
  explicit HugeArray(std::size_t n)
      : data_(n == 0 ? nullptr : static_cast<T*>(huge_alloc(n * sizeof(T)))),
        size_(n) {}
  ~HugeArray() { huge_free(data_, size_ * sizeof(T)); }

  HugeArray(HugeArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)), size_(std::exchange(o.size_, 0)) {}
  HugeArray& operator=(HugeArray&& o) noexcept {
    if (this != &o) {
      huge_free(data_, size_ * sizeof(T));
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  HugeArray(const HugeArray&) = delete;
  HugeArray& operator=(const HugeArray&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  explicit operator bool() const { return data_ != nullptr; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }

  /// Free the storage (the array becomes empty).
  void reset() { *this = HugeArray(); }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace tsb::util
