// Byte-exact value-state serialization used by whole-machine snapshots
// (rse::os::MachineSnapshot).  A component exposes
//
//   template <class Ar> void serialize_state(Ar& ar) { ar.field(a_); ... }
//
// and the same member function both captures (snap::Writer) and restores
// (snap::Reader) its value state.  Only *value* state goes through here:
// pointers, callbacks and other wiring are reconstructed by re-running the
// normal construction/load path before restoring, so the archive never has
// to encode object identity.
//
// Unordered containers are serialized in sorted key order so the byte image
// is a pure function of the value state, independent of hash seeds or
// insertion history.
#pragma once

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace rse::snap {

class Writer;
class Reader;

template <class Ar, typename T>
void serialize_value(Ar& ar, T& value);

/// Appends value state to a growing byte buffer.
class Writer {
 public:
  static constexpr bool kIsWriter = true;

  void raw(const void* data, std::size_t bytes) {
    const u8* p = static_cast<const u8*>(data);
    bytes_.insert(bytes_.end(), p, p + bytes);
  }

  template <typename T>
  void field(T& value) {
    serialize_value(*this, value);
  }

  /// Structural guard: the matching Reader::marker throws on mismatch, which
  /// localizes capture/restore schema drift to the component that diverged.
  void marker(u32 tag) { raw(&tag, sizeof tag); }

  std::vector<u8> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<u8> bytes_;
};

/// Reads value state back out of a byte buffer produced by Writer.
class Reader {
 public:
  static constexpr bool kIsWriter = false;

  explicit Reader(const std::vector<u8>& bytes) : bytes_(&bytes) {}

  void raw(void* data, std::size_t bytes) {
    if (pos_ + bytes > bytes_->size()) {
      throw SimError("snapshot restore: truncated archive");
    }
    std::memcpy(data, bytes_->data() + pos_, bytes);
    pos_ += bytes;
  }

  template <typename T>
  void field(T& value) {
    serialize_value(*this, value);
  }

  void marker(u32 tag) {
    u32 got = 0;
    raw(&got, sizeof got);
    if (got != tag) throw SimError("snapshot restore: archive marker mismatch");
  }

  bool exhausted() const { return pos_ == bytes_->size(); }

 private:
  const std::vector<u8>* bytes_;
  std::size_t pos_ = 0;
};

namespace detail {

/// A type whose bytes are a pure function of its value: the raw branches
/// below copy it as memory, so padding would leak indeterminate bytes into
/// the archive.  Floating-point values are raw-copied too (their object
/// representation is their value for everything the snapshot holds).
template <typename T>
inline constexpr bool kRawCopyable =
    std::has_unique_object_representations_v<T> || std::is_floating_point_v<T>;

template <class Ar, typename T>
concept HasSerializeState = requires(Ar& ar, T& v) { v.serialize_state(ar); };

template <typename T>
struct IsStdContainer : std::false_type {};
template <typename T, typename A>
struct IsStdContainer<std::vector<T, A>> : std::true_type {};
template <typename T, typename A>
struct IsStdContainer<std::deque<T, A>> : std::true_type {};

}  // namespace detail

template <class Ar, typename T>
void serialize_sequence(Ar& ar, T& seq) {
  u64 count = seq.size();
  ar.raw(&count, sizeof count);
  if constexpr (!Ar::kIsWriter) {
    seq.clear();
    seq.resize(static_cast<std::size_t>(count));
  }
  for (auto& element : seq) serialize_value(ar, element);
}

template <class Ar, typename K, typename V>
void serialize_sorted_map(Ar& ar, std::unordered_map<K, V>& map) {
  if constexpr (Ar::kIsWriter) {
    std::vector<K> keys;
    keys.reserve(map.size());
    for (const auto& [k, v] : map) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    u64 count = keys.size();
    ar.raw(&count, sizeof count);
    for (K& k : keys) {
      serialize_value(ar, k);
      serialize_value(ar, map.at(k));
    }
  } else {
    map.clear();
    u64 count = 0;
    ar.raw(&count, sizeof count);
    map.reserve(static_cast<std::size_t>(count));
    for (u64 i = 0; i < count; ++i) {
      K k{};
      serialize_value(ar, k);
      V v{};
      serialize_value(ar, v);
      map.emplace(std::move(k), std::move(v));
    }
  }
}

template <class Ar, typename K>
void serialize_sorted_set(Ar& ar, std::unordered_set<K>& set) {
  if constexpr (Ar::kIsWriter) {
    std::vector<K> keys(set.begin(), set.end());
    std::sort(keys.begin(), keys.end());
    u64 count = keys.size();
    ar.raw(&count, sizeof count);
    for (K& k : keys) serialize_value(ar, k);
  } else {
    set.clear();
    u64 count = 0;
    ar.raw(&count, sizeof count);
    set.reserve(static_cast<std::size_t>(count));
    for (u64 i = 0; i < count; ++i) {
      K k{};
      serialize_value(ar, k);
      set.insert(std::move(k));
    }
  }
}

template <class Ar, typename T>
void serialize_value(Ar& ar, T& value) {
  if constexpr (detail::HasSerializeState<Ar, T>) {
    value.serialize_state(ar);
  } else if constexpr (detail::IsStdContainer<T>::value) {
    using Element = typename T::value_type;
    if constexpr (std::is_trivially_copyable_v<Element> &&
                  !detail::HasSerializeState<Ar, Element> &&
                  std::is_same_v<T, std::vector<Element>>) {
      static_assert(detail::kRawCopyable<Element>,
                    "raw-copied element has padding: serialize it field by field");
      u64 count = value.size();
      ar.raw(&count, sizeof count);
      if constexpr (!Ar::kIsWriter) value.resize(static_cast<std::size_t>(count));
      if (count != 0) ar.raw(value.data(), value.size() * sizeof(Element));
    } else {
      serialize_sequence(ar, value);
    }
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    static_assert(detail::kRawCopyable<T>,
                  "raw-copied type has padding: serialize it field by field");
    ar.raw(&value, sizeof value);
  } else {
    static_assert(detail::HasSerializeState<Ar, T>,
                  "type has no serialize_state and no generic encoding");
  }
}

template <class Ar>
void serialize_value(Ar& ar, std::string& value) {
  u64 count = value.size();
  ar.raw(&count, sizeof count);
  if constexpr (!Ar::kIsWriter) value.resize(static_cast<std::size_t>(count));
  if (count != 0) ar.raw(value.data(), value.size());
}

template <class Ar, typename K, typename V>
void serialize_value(Ar& ar, std::map<K, V>& value) {
  if constexpr (Ar::kIsWriter) {
    u64 count = value.size();
    ar.raw(&count, sizeof count);
    for (auto& [k, v] : value) {
      K key = k;
      serialize_value(ar, key);
      serialize_value(ar, v);
    }
  } else {
    value.clear();
    u64 count = 0;
    ar.raw(&count, sizeof count);
    for (u64 i = 0; i < count; ++i) {
      K k{};
      serialize_value(ar, k);
      V v{};
      serialize_value(ar, v);
      value.emplace_hint(value.end(), std::move(k), std::move(v));
    }
  }
}

template <class Ar, typename K>
void serialize_value(Ar& ar, std::set<K>& value) {
  if constexpr (Ar::kIsWriter) {
    u64 count = value.size();
    ar.raw(&count, sizeof count);
    for (const K& k : value) {
      K key = k;
      serialize_value(ar, key);
    }
  } else {
    value.clear();
    u64 count = 0;
    ar.raw(&count, sizeof count);
    for (u64 i = 0; i < count; ++i) {
      K k{};
      serialize_value(ar, k);
      value.insert(value.end(), std::move(k));
    }
  }
}

template <class Ar, typename K, typename V>
void serialize_value(Ar& ar, std::unordered_map<K, V>& value) {
  serialize_sorted_map(ar, value);
}

template <class Ar, typename K>
void serialize_value(Ar& ar, std::unordered_set<K>& value) {
  serialize_sorted_set(ar, value);
}

template <class Ar, typename T>
void serialize_value(Ar& ar, std::optional<T>& value) {
  u8 has = value.has_value() ? 1 : 0;
  ar.raw(&has, sizeof has);
  if constexpr (!Ar::kIsWriter) {
    if (has) {
      value.emplace();
    } else {
      value.reset();
    }
  }
  if (has) serialize_value(ar, *value);
}

}  // namespace rse::snap
