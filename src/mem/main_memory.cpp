#include "mem/main_memory.hpp"

#include <algorithm>
#include <cassert>

namespace rse::mem {

u8* MainMemory::page_ptr(Addr addr) {
  const u32 page = page_of(addr);
  CachedPage& cached = page_cache_[cache_slot(page)];
  if (cached.page == page) return cached.data;
  auto& slot = pages_[page];
  if (!slot) {
    slot = std::make_unique<u8[]>(kPageBytes);
    std::memset(slot.get(), 0, kPageBytes);
  }
  cached = {page, slot.get()};
  return slot.get();
}

const u8* MainMemory::find_page(u32 page) const {
  auto it = pages_.find(page);
  if (it == pages_.end()) return nullptr;
  page_cache_[cache_slot(page)] = {page, it->second.get()};
  return it->second.get();
}

u8 MainMemory::read_u8(Addr addr) const {
  const u8* p = page_ptr_or_null(addr);
  return p ? p[addr & (kPageBytes - 1)] : 0;
}

u16 MainMemory::read_u16(Addr addr) const {
  return static_cast<u16>(read_u8(addr) | (read_u8(addr + 1) << 8));
}

void MainMemory::write_u8(Addr addr, u8 value) { page_ptr(addr)[addr & (kPageBytes - 1)] = value; }

void MainMemory::write_u16(Addr addr, u16 value) {
  write_u8(addr, static_cast<u8>(value & 0xFF));
  write_u8(addr + 1, static_cast<u8>(value >> 8));
}

void MainMemory::write_u32(Addr addr, u32 value) {
  u8* p = page_ptr(addr);
  const u32 off = addr & (kPageBytes - 1);
  if (off + 4 <= kPageBytes) {
    std::memcpy(p + off, &value, 4);
    return;
  }
  write_u16(addr, static_cast<u16>(value & 0xFFFF));
  write_u16(addr + 2, static_cast<u16>(value >> 16));
}

void MainMemory::read_block(Addr addr, u8* out, u32 count) const {
  u32 done = 0;
  while (done < count) {
    const u32 off = (addr + done) & (kPageBytes - 1);
    const u32 chunk = std::min(count - done, kPageBytes - off);
    const u8* p = page_ptr_or_null(addr + done);
    if (p) {
      std::memcpy(out + done, p + off, chunk);
    } else {
      std::memset(out + done, 0, chunk);
    }
    done += chunk;
  }
}

void MainMemory::write_block(Addr addr, const u8* data, u32 count) {
  u32 done = 0;
  while (done < count) {
    const u32 off = (addr + done) & (kPageBytes - 1);
    const u32 chunk = std::min(count - done, kPageBytes - off);
    std::memcpy(page_ptr(addr + done) + off, data + done, chunk);
    done += chunk;
  }
}

std::vector<u8> MainMemory::snapshot_page(u32 page) const {
  std::vector<u8> bytes(kPageBytes);
  read_block(page_base(page), bytes.data(), kPageBytes);
  return bytes;
}

void MainMemory::restore_page(u32 page, const std::vector<u8>& bytes) {
  assert(bytes.size() == kPageBytes);
  write_block(page_base(page), bytes.data(), kPageBytes);
}

}  // namespace rse::mem
