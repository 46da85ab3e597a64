#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace digruber::net::wire {

/// Traffic class of a wire frame, for the bytes-on-wire / encode-count
/// telemetry. The mapping from method ids to categories belongs to the
/// protocol layer (see digruber::method_category), installed via
/// set_method_categorizer; the wire layer only counts.
enum class MsgCategory : std::uint8_t {
  kQuery = 0,         // brokering queries and their replies
  kStateExchange,     // decision-point state-exchange broadcast
  kControl,           // anti-entropy catch-up, saturation signals
  kOther,
};
inline constexpr std::size_t kMsgCategoryCount = 4;

/// Process-wide frame-encode telemetry: how many times each traffic class
/// was serialized and how many bytes it put on the wire. The single-encode
/// fan-out invariant is asserted against `encodes(kStateExchange)`: one
/// serialization per exchange round, regardless of peer count. Counters
/// are relaxed atomics: safe if frames are encoded on several threads,
/// and free of ordering effects on the single-threaded simulated path.
class WireStats {
 public:
  void record_encode(MsgCategory category, std::size_t frame_bytes) {
    const auto i = static_cast<std::size_t>(category);
    encodes_[i].fetch_add(1, std::memory_order_relaxed);
    bytes_[i].fetch_add(frame_bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t encodes(MsgCategory category) const {
    return encodes_[static_cast<std::size_t>(category)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes(MsgCategory category) const {
    return bytes_[static_cast<std::size_t>(category)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_encodes() const {
    std::uint64_t sum = 0;
    for (const auto& c : encodes_) sum += c.load(std::memory_order_relaxed);
    return sum;
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& c : bytes_) sum += c.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() {
    for (auto& c : encodes_) c.store(0, std::memory_order_relaxed);
    for (auto& c : bytes_) c.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kMsgCategoryCount> encodes_{};
  std::array<std::atomic<std::uint64_t>, kMsgCategoryCount> bytes_{};
};

/// The process-wide instance frame builders record into.
WireStats& wire_stats();

/// Protocol hook: maps a method id to its traffic class. Unset (nullptr)
/// classifies everything as kOther.
using MethodCategorizer = MsgCategory (*)(std::uint16_t method);
void set_method_categorizer(MethodCategorizer fn);
[[nodiscard]] MsgCategory categorize_method(std::uint16_t method);

}  // namespace digruber::net::wire
