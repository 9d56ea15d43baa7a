#include "util/huge_pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <new>

namespace tsb::util {

namespace {
std::size_t page_bytes() {
  static const std::size_t sz = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return sz;
}
}  // namespace

std::size_t huge_alloc_size(std::size_t bytes) {
  if (bytes < kHugePageBytes) return bytes;
  return (bytes + page_bytes() - 1) & ~(page_bytes() - 1);
}

void* huge_alloc(std::size_t bytes) {
  if (bytes < kHugePageBytes) {
    void* p = std::calloc(bytes == 0 ? 1 : bytes, 1);
    if (p == nullptr) throw std::bad_alloc();
    return p;
  }
  const std::size_t len = huge_alloc_size(bytes);
  if (len < bytes) throw std::bad_alloc();  // rounding overflowed
  // Over-map by one huge page, then trim both ends so the block starts on
  // a 2 MiB boundary: only an aligned range can be backed by huge pages.
  const std::size_t span = len + kHugePageBytes;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start =
      (base + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
  const std::size_t head = start - base;
  if (head != 0) ::munmap(raw, head);
  const std::size_t tail = span - head - len;
  if (tail != 0) ::munmap(reinterpret_cast<void*>(start + len), tail);
  void* p = reinterpret_cast<void*>(start);
#ifdef MADV_HUGEPAGE
  // Advise only the whole huge pages inside the request. A partial last
  // huge page would be populated whole on first touch, charging its
  // never-used slack to RSS (a 5 MiB segment would cost 6 MiB); that tail
  // stays on base pages instead. Advisory: fails harmlessly (EINVAL) on
  // kernels without THP.
  (void)::madvise(p, bytes & ~(kHugePageBytes - 1), MADV_HUGEPAGE);
#endif
  return p;
}

void huge_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kHugePageBytes) {
    std::free(p);
    return;
  }
  ::munmap(p, huge_alloc_size(bytes));
}

}  // namespace tsb::util
