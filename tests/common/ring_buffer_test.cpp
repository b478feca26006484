#include "common/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"

namespace rse {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  rb.push(4);
  rb.push(5);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_EQ(rb.pop(), 5);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsAround) {
  RingBuffer<int> rb(3);
  for (int round = 0; round < 10; ++round) {
    rb.push(round);
    rb.push(round + 100);
    EXPECT_EQ(rb.pop(), round);
    EXPECT_EQ(rb.pop(), round + 100);
  }
}

TEST(RingBuffer, FullDetection) {
  RingBuffer<int> rb(2);
  rb.push(1);
  EXPECT_FALSE(rb.full());
  rb.push(2);
  EXPECT_TRUE(rb.full());
}

TEST(RingBuffer, IndexedAccess) {
  RingBuffer<int> rb(4);
  rb.push(10);
  rb.push(11);
  rb.push(12);
  EXPECT_EQ(rb.at(0), 10);
  EXPECT_EQ(rb.at(1), 11);
  EXPECT_EQ(rb.at(2), 12);
  rb.at(1) = 42;
  rb.pop();
  EXPECT_EQ(rb.front(), 42);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(7);
  EXPECT_EQ(rb.front(), 7);
}

TEST(RingBuffer, EmplaceBackBuildsAFreshElementInPlace) {
  RingBuffer<int> rb(2);
  rb.push(5);
  EXPECT_EQ(rb.pop(), 5);
  rb.push(6);
  int& slot = rb.emplace_back();  // reuses the slot that held 5
  EXPECT_EQ(slot, 0);
  slot = 7;
  EXPECT_EQ(rb.at(1), 7);
  EXPECT_TRUE(rb.full());
}

// Random push, emplace, pop and at sequences against std::deque, for every
// capacity from 1 to 7: the wrap holds whether or not the capacity is a
// power of two.
TEST(RingBuffer, MatchesDequeUnderRandomOperations) {
  for (std::size_t capacity = 1; capacity <= 7; ++capacity) {
    Xorshift64 rng(capacity);
    RingBuffer<int> rb(capacity);
    std::deque<int> model;
    int next = 1;
    for (int step = 0; step < 2000; ++step) {
      switch (rng.next_below(4)) {
        case 0:
          if (!rb.full()) {
            rb.push(next);
            model.push_back(next++);
          }
          break;
        case 1:
          if (!rb.full()) {
            rb.emplace_back() = next;
            model.push_back(next++);
          }
          break;
        case 2:
          if (!rb.empty()) {
            ASSERT_EQ(rb.pop(), model.front()) << "capacity " << capacity << ", step " << step;
            model.pop_front();
          }
          break;
        default:
          if (!rb.empty()) {
            const std::size_t i = rng.next_below(model.size());
            rb.at(i) = next;
            model[i] = next++;
          }
          break;
      }
      ASSERT_EQ(rb.size(), model.size()) << "capacity " << capacity << ", step " << step;
      ASSERT_EQ(rb.full(), model.size() == capacity);
      for (std::size_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(rb.at(i), model[i]) << "capacity " << capacity << ", step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace rse
