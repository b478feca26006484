#include "mem/main_memory.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace rse::mem {
namespace {

/// The serialize_state image of `memory`.
std::vector<u8> image_of(MainMemory& memory) {
  snap::Writer writer;
  memory.serialize_state(writer);
  return writer.take();
}

TEST(MainMemory, ZeroInitialized) {
  MainMemory m;
  EXPECT_EQ(m.read_u8(0), 0);
  EXPECT_EQ(m.read_u32(0x12345678), 0u);
}

TEST(MainMemory, ByteHalfWordRoundTrip) {
  MainMemory m;
  m.write_u8(100, 0xAB);
  m.write_u16(102, 0xBEEF);
  m.write_u32(104, 0xDEADBEEF);
  EXPECT_EQ(m.read_u8(100), 0xAB);
  EXPECT_EQ(m.read_u16(102), 0xBEEF);
  EXPECT_EQ(m.read_u32(104), 0xDEADBEEFu);
}

TEST(MainMemory, LittleEndianLayout) {
  MainMemory m;
  m.write_u32(0, 0x04030201);
  EXPECT_EQ(m.read_u8(0), 1);
  EXPECT_EQ(m.read_u8(1), 2);
  EXPECT_EQ(m.read_u8(2), 3);
  EXPECT_EQ(m.read_u8(3), 4);
  EXPECT_EQ(m.read_u16(1), 0x0302);
}

TEST(MainMemory, CrossPageWord) {
  MainMemory m;
  const Addr boundary = kPageBytes - 2;
  m.write_u32(boundary, 0xCAFEBABE);
  EXPECT_EQ(m.read_u32(boundary), 0xCAFEBABEu);
  EXPECT_EQ(m.pages_touched(), 2u);
}

TEST(MainMemory, BlockTransferAcrossPages) {
  MainMemory m;
  std::vector<u8> data(kPageBytes + 100);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  m.write_block(kPageBytes - 50, data.data(), static_cast<u32>(data.size()));
  std::vector<u8> readback(data.size());
  m.read_block(kPageBytes - 50, readback.data(), static_cast<u32>(readback.size()));
  EXPECT_EQ(readback, data);
}

TEST(MainMemory, ReadBlockOfUntouchedMemoryIsZero) {
  MainMemory m;
  u8 buf[16] = {1, 2, 3};
  m.read_block(0x40000000, buf, sizeof(buf));
  for (u8 b : buf) EXPECT_EQ(b, 0);
}

TEST(MainMemory, PageSnapshotRestore) {
  MainMemory m;
  m.write_u32(0x5000, 111);
  m.write_u32(0x5004, 222);
  const u32 page = page_of(0x5000);
  const std::vector<u8> snap = m.snapshot_page(page);
  m.write_u32(0x5000, 999);
  m.write_u32(0x5FFC, 888);
  m.restore_page(page, snap);
  EXPECT_EQ(m.read_u32(0x5000), 111u);
  EXPECT_EQ(m.read_u32(0x5004), 222u);
  EXPECT_EQ(m.read_u32(0x5FFC), 0u);
}

TEST(MainMemory, PageHelpers) {
  EXPECT_EQ(page_of(0), 0u);
  EXPECT_EQ(page_of(4095), 0u);
  EXPECT_EQ(page_of(4096), 1u);
  EXPECT_EQ(page_base(3), 3u * 4096);
}

// Far more pages than the page cache holds, in the guest's text, data and
// checker-memory segments, so pages share entries: a lookup must still tell
// them apart, and a read of an untouched page must not leave an entry that
// the write allocating it bypasses.
TEST(MainMemory, PageCacheSeesAPageAllocatedAfterAMiss) {
  MainMemory m;
  std::vector<Addr> words;
  for (const Addr segment : {0x0040'0000u, 0x1000'0000u, 0xC000'0000u}) {
    for (Addr page = 0; page < 512; ++page) words.push_back(segment + page * kPageBytes + 8);
  }
  for (const Addr word : words) EXPECT_EQ(m.read_u32(word), 0u) << std::hex << word;
  EXPECT_EQ(m.pages_touched(), 0u);
  for (const Addr word : words) m.write_u32(word, word ^ 0x5A5A'5A5Au);
  for (const Addr word : words) EXPECT_EQ(m.read_u32(word), word ^ 0x5A5A'5A5Au) << std::hex << word;
  EXPECT_EQ(m.pages_touched(), words.size());
}

// A restore drops every page the target held, and the page cache still
// names some of them: no later read or write may reach a dropped page.
TEST(MainMemory, PageCacheForgetsPagesARestoreDrops) {
  MainMemory source;
  source.write_u32(0x9000, 0xABCD'0123);
  const std::vector<u8> image = image_of(source);

  MainMemory m;
  m.write_u32(0x5000, 111);  // cached, then dropped by the restore
  m.write_u32(0x9000, 222);  // cached, then replaced by the restore
  EXPECT_EQ(m.read_u32(0x5000), 111u);
  snap::Reader reader(image);
  m.serialize_state(reader);

  EXPECT_EQ(m.pages_touched(), 1u);
  EXPECT_EQ(m.read_u32(0x5000), 0u);
  EXPECT_EQ(m.read_u32(0x9000), 0xABCD'0123u);
  EXPECT_EQ(m.pages_touched(), 1u);  // reads allocate nothing
  m.write_u32(0x5004, 333);
  EXPECT_EQ(m.read_u32(0x5004), 333u);
  EXPECT_EQ(m.read_u32(0x5000), 0u);
  EXPECT_EQ(m.pages_touched(), 2u);
}

// Random byte, half-word and word accesses over pages that collide in the
// page cache, with restores from a second memory in between, against a
// byte map.
TEST(MainMemory, MatchesAByteMapUnderRandomAccessesAndRestores) {
  Xorshift64 rng(17);
  MainMemory m;
  MainMemory other;
  std::map<Addr, u8> model;
  std::map<Addr, u8> other_model;
  auto model_read = [&model](Addr addr) {
    const auto it = model.find(addr);
    return it == model.end() ? u8{0} : it->second;
  };
  for (int step = 0; step < 20000; ++step) {
    // 200 pages, some of them sharing page-cache entries.
    const Addr addr = static_cast<Addr>(rng.next_below(200)) * kPageBytes +
                      static_cast<Addr>(rng.next_below(kPageBytes));
    const u32 value = static_cast<u32>(rng.next());
    switch (rng.next_below(6)) {
      case 0:
        m.write_u8(addr, static_cast<u8>(value));
        model[addr] = static_cast<u8>(value);
        break;
      case 1:
        m.write_u32(addr, value);
        for (u32 i = 0; i < 4; ++i) model[addr + i] = static_cast<u8>(value >> (8 * i));
        break;
      case 2:
        ASSERT_EQ(m.read_u8(addr), model_read(addr)) << "step " << step;
        break;
      case 3:
        ASSERT_EQ(m.read_u16(addr), model_read(addr) | (model_read(addr + 1) << 8))
            << "step " << step;
        break;
      case 4: {
        u32 expected = 0;
        for (u32 i = 0; i < 4; ++i) expected |= u32{model_read(addr + i)} << (8 * i);
        ASSERT_EQ(m.read_u32(addr), expected) << "step " << step;
        break;
      }
      default:
        if (rng.next_below(50) == 0) {
          // Swap in a smaller image: `other` holds a few pages of its own.
          other.write_u8(addr, static_cast<u8>(value));
          other_model[addr] = static_cast<u8>(value);
          const std::vector<u8> image = image_of(other);
          snap::Reader reader(image);
          m.serialize_state(reader);
          model = other_model;
        }
        break;
    }
  }
}

}  // namespace
}  // namespace rse::mem
