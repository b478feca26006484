// Fixed-capacity circular FIFO used for hardware queue models (fetch buffer,
// MAU request queue, network event queues).  Capacity is set at construction;
// no reallocation ever happens, matching the fixed-size hardware structures.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace rse {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : slots_(capacity) { assert(capacity > 0); }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Push a value-initialized element to the back and return it, for the
  /// caller to fill in place.  Precondition: !full().
  T& emplace_back() {
    assert(!full());
    T& slot = slots_[wrap(head_ + size_)];
    slot = T{};
    ++size_;
    return slot;
  }

  /// Push to the back.  Precondition: !full().
  void push(T value) { emplace_back() = std::move(value); }

  /// Pop from the front.  Precondition: !empty().
  T pop() {
    assert(!empty());
    T value = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return value;
  }

  const T& front() const {
    assert(!empty());
    return slots_[head_];
  }

  T& front() {
    assert(!empty());
    return slots_[head_];
  }

  /// Element `i` positions behind the front (0 == front).
  const T& at(std::size_t i) const {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }

  T& at(std::size_t i) {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Snapshot hook: serializes all slots (capacity is part of the image, so
  /// restore must target a buffer constructed with the same capacity).
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(slots_);
    u64 head = head_;
    u64 size = size_;
    ar.field(head);
    ar.field(size);
    if (head >= slots_.size() || size > slots_.size()) {
      throw SimError("RingBuffer: snapshot head or size past the capacity");
    }
    head_ = static_cast<std::size_t>(head);
    size_ = static_cast<std::size_t>(size);
  }

 private:
  /// An index below twice the capacity, wrapped into the ring with a
  /// compare and a subtract: no divide on the cycle's path.
  std::size_t wrap(std::size_t index) const {
    return index < slots_.size() ? index : index - slots_.size();
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rse
