#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

namespace digruber::net {

/// Ref-counted, immutable, contiguous byte buffer — the unit of ownership
/// on the message path. A `Buffer` is a view into shared storage: copying
/// or slicing one bumps a reference count instead of copying bytes, so a
/// frame encoded once can be handed to N transport queues and parked in a
/// container admission queue without a single payload copy. The storage
/// is never mutated after construction, which is what makes the sharing
/// safe (see docs/protocol.md, "Buffer ownership and lifetime").
///
/// The reference count is a std::shared_ptr control block, so it is
/// atomic: Buffers may also be copied and destroyed on other threads.
class Buffer {
 public:
  Buffer() = default;

  /// Adopt a byte vector (no copy of the bytes; one control-block + vector
  /// allocation, counted in `allocations()`). Implicit on purpose: it lets
  /// legacy `std::vector` producers feed the Buffer-typed message path.
  Buffer(std::vector<std::uint8_t> bytes);
  Buffer(std::initializer_list<std::uint8_t> bytes);

  /// Copy `bytes` into fresh shared storage.
  static Buffer copy(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {data_, size_};
  }
  operator std::span<const std::uint8_t>() const { return span(); }

  [[nodiscard]] std::vector<std::uint8_t> to_vector() const {
    return {data_, data_ + size_};
  }

  /// A sub-view sharing this buffer's storage (no copy). `offset + n` is
  /// clamped to the buffer's extent.
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t n) const;

  /// Number of Buffers (including this one) sharing the storage; 0 for an
  /// empty, storage-free buffer. For tests asserting share-vs-copy.
  [[nodiscard]] long owners() const {
    return storage_ ? storage_.use_count() : 0;
  }

  /// Byte-wise equality (contents, not identity).
  friend bool operator==(const Buffer& a, const Buffer& b) {
    if (a.size_ != b.size_) return false;
    return a.size_ == 0 || std::equal(a.data_, a.data_ + a.size_, b.data_);
  }

  /// Process-wide count of storage allocations since start. The zero-copy
  /// invariants are asserted as deltas of this counter: a fan-out to N
  /// peers must cost one allocation, not N.
  static std::uint64_t allocations();

 private:
  using Storage = std::shared_ptr<const std::vector<std::uint8_t>>;

  Buffer(Storage storage, const std::uint8_t* data, std::size_t size)
      : storage_(std::move(storage)), data_(data), size_(size) {}

  Storage storage_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace digruber::net
