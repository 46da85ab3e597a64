#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "digruber/net/wire/buffer.hpp"

namespace digruber::net::wire {

/// Binary serialization archives with a symmetric `operator&` so message
/// structs declare their layout once:
///
///   struct Ping {
///     std::uint64_t nonce{};
///     template <class Archive> void serialize(Archive& ar) { ar & nonce; }
///   };
///
/// Encoding: little-endian fixed-width integers, IEEE-754 doubles, u32
/// length prefixes for strings/containers. The Reader never throws on
/// malformed input — it sets a fail flag and yields zero values, so
/// truncated or hostile packets are handled by checking `ok()`.
///
/// Three archives share the format:
///   Writer — appends bytes, bulk-encoding integers via memcpy on
///            little-endian hosts (byte-swap fallback elsewhere);
///   Sizer  — computes the exact encoded size without touching memory, so
///            encode() can reserve once and never reallocate;
///   Reader — decodes from a non-owning std::span view; it never copies
///            the input and never reads past it.

namespace detail {

template <class U>
constexpr U to_little_endian(U u) {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (std::endian::native == std::endian::little) {
    return u;
  } else {
    U swapped = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      swapped = static_cast<U>((swapped << 8) | (u & 0xff));
      u = static_cast<U>(u >> 8);
    }
    return swapped;
  }
}

}  // namespace detail

class Writer {
 public:
  static constexpr bool kIsWriter = true;

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {buf_.data(), pos_};
  }
  [[nodiscard]] std::vector<std::uint8_t> take() {
    buf_.resize(pos_);
    pos_ = 0;
    return std::move(buf_);
  }
  /// Move the encoded bytes into shared, immutable storage (one allocation
  /// for the Buffer control block; the byte array itself is not copied).
  [[nodiscard]] net::Buffer take_buffer() { return net::Buffer(take()); }
  [[nodiscard]] std::size_t size() const { return pos_; }

  /// Reserve room for `n` more bytes. encode() sizes messages exactly with
  /// a Sizer pass, so every subsequent write is a branch-predicted bounds
  /// check plus an unchecked memcpy at the cursor — no per-field insert()
  /// bookkeeping and no reallocation on the hot path.
  void reserve(std::size_t n) { buf_.resize(pos_ + n); }

  void raw(const void* data, std::size_t n) {
    if (n == 0) return;  // empty spans may carry a null data pointer
    ensure(n);
    std::memcpy(buf_.data() + pos_, data, n);
    pos_ += n;
  }

  template <class T>
  Writer& operator&(const T& v) {
    write(v);
    return *this;
  }

 private:
  /// Grow the backing store when a write was not covered by reserve().
  /// Geometric so unsized use stays amortized-O(1).
  void ensure(std::size_t n) {
    if (pos_ + n > buf_.size()) {
      buf_.resize(std::max(buf_.size() * 2, pos_ + n));
    }
  }

  template <class T>
  void write_integral(T v) {
    using U = std::make_unsigned_t<T>;
    const U u = detail::to_little_endian(static_cast<U>(v));
    // Bulk encode: one memcpy at the cursor instead of sizeof(U)
    // push_backs.
    ensure(sizeof(U));
    std::memcpy(buf_.data() + pos_, &u, sizeof(U));
    pos_ += sizeof(U);
  }

  template <class T>
  void write(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      ensure(1);
      buf_[pos_++] = v ? 1 : 0;
    } else if constexpr (std::is_enum_v<T>) {
      write_integral(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      write_integral(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      std::uint64_t bits;
      const double d = static_cast<double>(v);
      std::memcpy(&bits, &d, sizeof bits);
      write_integral(bits);
    } else if constexpr (std::is_same_v<T, std::string>) {
      write_integral(static_cast<std::uint32_t>(v.size()));
      raw(v.data(), v.size());
    } else {
      serialize_dispatch(v);
    }
  }

  template <class T>
  void write(const std::vector<T>& v) {
    write_integral(static_cast<std::uint32_t>(v.size()));
    if constexpr (std::is_integral_v<T> && sizeof(T) == 1 &&
                  !std::is_same_v<T, bool>) {
      raw(v.data(), v.size());  // byte vectors encode as one block
    } else {
      for (const auto& e : v) write(e);
    }
  }

  template <class K, class V>
  void write(const std::map<K, V>& m) {
    write_integral(static_cast<std::uint32_t>(m.size()));
    for (const auto& [k, v] : m) {
      write(k);
      write(v);
    }
  }

  template <class T>
  void write(const std::optional<T>& o) {
    write(o.has_value());
    if (o) write(*o);
  }

  template <class A, class B>
  void write(const std::pair<A, B>& p) {
    write(p.first);
    write(p.second);
  }

  template <class T>
  void serialize_dispatch(const T& v) {
    // serialize() members are logically const for a Writer.
    const_cast<T&>(v).serialize(*this);
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Computes the exact encoded size of a message without writing a byte.
/// Mirrors Writer's layout rules; `kIsWriter` is true so version-gated
/// serialize() branches take the writing path.
class Sizer {
 public:
  static constexpr bool kIsWriter = true;

  [[nodiscard]] std::size_t size() const { return size_; }

  void raw(const void* /*data*/, std::size_t n) { size_ += n; }

  template <class T>
  Sizer& operator&(const T& v) {
    measure(v);
    return *this;
  }

 private:
  template <class T>
  void measure(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      size_ += 1;
    } else if constexpr (std::is_enum_v<T>) {
      size_ += sizeof(std::underlying_type_t<T>);
    } else if constexpr (std::is_integral_v<T>) {
      size_ += sizeof(std::make_unsigned_t<T>);
    } else if constexpr (std::is_floating_point_v<T>) {
      size_ += sizeof(std::uint64_t);
    } else if constexpr (std::is_same_v<T, std::string>) {
      size_ += sizeof(std::uint32_t) + v.size();
    } else {
      const_cast<T&>(v).serialize(*this);
    }
  }

  template <class T>
  void measure(const std::vector<T>& v) {
    size_ += sizeof(std::uint32_t);
    if constexpr (std::is_integral_v<T> && sizeof(T) == 1 &&
                  !std::is_same_v<T, bool>) {
      size_ += v.size();
    } else {
      for (const auto& e : v) measure(e);
    }
  }

  template <class K, class V>
  void measure(const std::map<K, V>& m) {
    size_ += sizeof(std::uint32_t);
    for (const auto& [k, v] : m) {
      measure(k);
      measure(v);
    }
  }

  template <class T>
  void measure(const std::optional<T>& o) {
    size_ += 1;
    if (o) measure(*o);
  }

  template <class A, class B>
  void measure(const std::pair<A, B>& p) {
    measure(p.first);
    measure(p.second);
  }

  std::size_t size_ = 0;
};

/// Exact encoded size of any serializable value.
template <class T>
std::size_t encoded_size(const T& msg) {
  Sizer s;
  s & msg;
  return s.size();
}

class Reader {
 public:
  static constexpr bool kIsWriter = false;

  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  /// True when every byte was consumed and no underrun occurred.
  [[nodiscard]] bool complete() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  template <class T>
  Reader& operator&(T& v) {
    read(v);
    return *this;
  }

 private:
  bool take(void* out, std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      std::memset(out, 0, n);
      return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  template <class T>
  void read_integral(T& v) {
    using U = std::make_unsigned_t<T>;
    // Bulk decode: one bounds check + one memcpy, byte-swapped only on
    // big-endian hosts.
    U u = 0;
    if (!take(&u, sizeof(U))) {
      v = T{};
      return;
    }
    v = static_cast<T>(detail::to_little_endian(u));
  }

  template <class T>
  void read(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      take(&b, 1);
      v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      read_integral(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_integral_v<T>) {
      read_integral(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      std::uint64_t bits = 0;
      read_integral(bits);
      double d;
      std::memcpy(&d, &bits, sizeof d);
      v = static_cast<T>(d);
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::uint32_t n = 0;
      read_integral(n);
      if (!ok_ || remaining() < n) {
        ok_ = false;
        v.clear();
        return;
      }
      v.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
      pos_ += n;
    } else {
      v.serialize(*this);
    }
  }

  template <class T>
  void read(std::vector<T>& v) {
    std::uint32_t n = 0;
    read_integral(n);
    v.clear();
    // Guard against hostile lengths: each element consumes >= 1 byte.
    if (!ok_ || n > remaining()) {
      if (n != 0) ok_ = false;
      return;
    }
    if constexpr (std::is_integral_v<T> && sizeof(T) == 1 &&
                  !std::is_same_v<T, bool>) {
      v.assign(reinterpret_cast<const T*>(data_.data() + pos_),
               reinterpret_cast<const T*>(data_.data() + pos_) + n);
      pos_ += n;
    } else {
      v.reserve(n);
      for (std::uint32_t i = 0; i < n && ok_; ++i) {
        v.emplace_back();
        read(v.back());
      }
    }
  }

  template <class K, class V>
  void read(std::map<K, V>& m) {
    std::uint32_t n = 0;
    read_integral(n);
    m.clear();
    if (!ok_ || n > remaining()) {
      if (n != 0) ok_ = false;
      return;
    }
    for (std::uint32_t i = 0; i < n && ok_; ++i) {
      K k{};
      V v{};
      read(k);
      read(v);
      m.emplace(std::move(k), std::move(v));
    }
  }

  template <class T>
  void read(std::optional<T>& o) {
    bool has = false;
    read(has);
    if (has) {
      o.emplace();
      read(*o);
    } else {
      o.reset();
    }
  }

  template <class A, class B>
  void read(std::pair<A, B>& p) {
    read(p.first);
    read(p.second);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// One optional trailing field group. Message structs append optional
/// fields after their fixed layout, in a fixed order, so legacy senders
/// and receivers stay byte-compatible: a writer emits `fields` only when
/// `present` is true, and a reader decodes them only when bytes remain,
/// then sets `present`. Pass the group's own flag, or an expression such
/// as `!v.empty()` when the fields carry their presence themselves (the
/// reader then sets a temporary). Groups stack positionally: a sender
/// that attaches a group must also attach every earlier one.
///
///   ar & job & cpus;
///   trailer(ar, has_epoch, membership_epoch);
///   trailer(ar, has_bid, budget, deadline_s);
template <class Archive, class Present, class... Fields>
void trailer(Archive& ar, Present&& present, Fields&... fields) {
  if constexpr (Archive::kIsWriter) {
    if (present) (ar & ... & fields);
  } else if (ar.remaining() > 0) {
    (ar & ... & fields);
    present = true;
  }
}

/// Presence of a trailer group that a later group forces onto the wire:
/// written when either `own` or `later` is set; decoding sets `own`.
struct Forced {
  bool& own;
  bool later;
  explicit operator bool() const { return own || later; }
  Forced& operator=(bool value) {
    own = value;
    return *this;
  }
};

/// Encode any serializable struct to bytes. A Sizer pass first computes
/// the exact length, so the output vector is allocated once.
template <class T>
std::vector<std::uint8_t> encode(const T& msg) {
  Writer w;
  w.reserve(encoded_size(msg));
  w & msg;
  return w.take();
}

/// Encode into shared, immutable storage (one allocation total).
template <class T>
net::Buffer encode_buffer(const T& msg) {
  Writer w;
  w.reserve(encoded_size(msg));
  w & msg;
  return w.take_buffer();
}

/// Decode bytes into `out`; false if the buffer is malformed or has
/// trailing garbage.
template <class T>
bool decode(std::span<const std::uint8_t> bytes, T& out) {
  Reader r(bytes);
  r & out;
  return r.complete();
}

}  // namespace digruber::net::wire
