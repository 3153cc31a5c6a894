// Bump arena for kernel scratch space (rebench::columnar).
//
// The vectorized kernels need short-lived selection vectors and translation
// tables sized by the input, often several per operation.  Allocating each
// from the heap dominates small-frame latency and fragments large-frame
// runs, so kernels draw from a bump arena instead: allocation is a pointer
// increment, and the whole arena is released at once when the operation
// ends.  Blocks grow geometrically; an oversized request gets a dedicated
// block.  Trivially-destructible element types only — the arena never runs
// destructors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace rebench::columnar {

class Arena {
 public:
  explicit Arena(std::size_t initialBytes = 1 << 16)
      : nextBlockBytes_(initialBytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `count` elements of T, aligned for T.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    const std::size_t bytes = count * sizeof(T);
    std::byte* p = allocBytes(bytes, alignof(T));
    return {reinterpret_cast<T*>(p), count};
  }

  /// Releases every allocation but keeps the largest block for reuse.
  void reset() {
    if (blocks_.size() > 1) {
      Block keep = std::move(blocks_.back());
      blocks_.clear();
      blocks_.push_back(std::move(keep));
    }
    cursor_ = 0;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::byte* allocBytes(std::size_t bytes, std::size_t align) {
    if (blocks_.empty() || !fits(bytes, align)) grow(bytes + align);
    Block& block = blocks_.back();
    std::size_t aligned = (cursor_ + align - 1) & ~(align - 1);
    cursor_ = aligned + bytes;
    return block.data.get() + aligned;
  }

  bool fits(std::size_t bytes, std::size_t align) const {
    const Block& block = blocks_.back();
    const std::size_t aligned = (cursor_ + align - 1) & ~(align - 1);
    return aligned + bytes <= block.size;
  }

  void grow(std::size_t atLeast) {
    std::size_t size = nextBlockBytes_;
    while (size < atLeast) size *= 2;
    nextBlockBytes_ = size * 2;
    blocks_.push_back({std::make_unique<std::byte[]>(size), size});
    cursor_ = 0;
  }

  std::vector<Block> blocks_;
  std::size_t cursor_ = 0;
  std::size_t nextBlockBytes_;
};

}  // namespace rebench::columnar
