// Functional main memory: a sparse, page-granular byte store for the guest's
// 32-bit address space.  Timing is modeled separately (BusArbiter / Cache);
// this class answers "what value lives at address A" only.  Reads update a
// page cache, so one MainMemory serves one thread at a time, reads included
// (each simulated machine owns its memory).
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace rse::mem {

inline constexpr u32 kPageShift = 12;  // 4 KB pages (also the DDT granularity)
inline constexpr u32 kPageBytes = 1u << kPageShift;

/// Page number of an address.
constexpr u32 page_of(Addr addr) { return addr >> kPageShift; }
constexpr Addr page_base(u32 page) { return page << kPageShift; }

class MainMemory {
 public:
  MainMemory() = default;
  // Not copyable or movable: the page cache names pages this object owns.
  MainMemory(const MainMemory&) = delete;
  MainMemory& operator=(const MainMemory&) = delete;

  u8 read_u8(Addr addr) const;
  u16 read_u16(Addr addr) const;
  u32 read_u32(Addr addr) const {
    const u32 off = addr & (kPageBytes - 1);
    if (off + 4 > kPageBytes) return read_u16(addr) | (u32{read_u16(addr + 2)} << 16);
    u32 value = 0;
    if (const u8* p = page_ptr_or_null(addr)) std::memcpy(&value, p + off, 4);
    return value;
  }

  void write_u8(Addr addr, u8 value);
  void write_u16(Addr addr, u16 value);
  void write_u32(Addr addr, u32 value);

  /// Bulk copy out of guest memory (used by the MAU and checkpointing).
  void read_block(Addr addr, u8* out, u32 count) const;
  /// Bulk copy into guest memory.
  void write_block(Addr addr, const u8* data, u32 count);

  /// Host pointer to the 4 KB page containing `addr` (allocating it if
  /// untouched).  Pages live behind unique_ptr, so the pointer stays valid
  /// across later allocations — the contract the exec/ direct-memory fast
  /// path depends on.  Accesses through it bypass nothing semantically:
  /// this is the same backing store read_u8/write_u32 use.
  u8* host_page(Addr addr) { return page_ptr(addr); }

  /// Snapshot one whole page (allocating it if untouched).
  std::vector<u8> snapshot_page(u32 page) const;
  /// Restore a page snapshot.
  void restore_page(u32 page, const std::vector<u8>& bytes);

  /// Number of distinct pages touched so far.
  std::size_t pages_touched() const { return pages_.size(); }

  /// Sorted page numbers of every touched page.
  std::vector<u32> page_numbers() const {
    std::vector<u32> pages;
    pages.reserve(pages_.size());
    for (const auto& [page, data] : pages_) pages.push_back(page);
    std::sort(pages.begin(), pages.end());
    return pages;
  }

  /// Snapshot hook: the byte image is the sorted set of touched pages.  A
  /// restore drops every existing page first, so the restored store is
  /// byte-identical even if the target had touched pages the snapshot lacks.
  template <class Ar>
  void serialize_state(Ar& ar) {
    if constexpr (Ar::kIsWriter) {
      const std::vector<u32> pages = page_numbers();
      u64 count = pages.size();
      ar.raw(&count, sizeof count);
      for (u32 page : pages) {
        ar.raw(&page, sizeof page);
        ar.raw(pages_.at(page).get(), kPageBytes);
      }
    } else {
      pages_.clear();
      page_cache_.fill(CachedPage{});
      u64 count = 0;
      ar.raw(&count, sizeof count);
      for (u64 i = 0; i < count; ++i) {
        u32 page = 0;
        ar.raw(&page, sizeof page);
        ar.raw(page_ptr(page_base(page)), kPageBytes);
      }
    }
  }

 private:
  /// One entry of the page cache: a page number and its data.
  struct CachedPage {
    u32 page = ~0u;  // no page number reaches this: pages are 20-bit
    u8* data = nullptr;
  };
  static constexpr u32 kCachedPageBits = 8;

  /// A page's entry in the page cache.  The guest's segments start at
  /// multiples of large powers of two (text 0x400000, data 0x10000000, the
  /// ICM's checker memory 0xC0000000), so a multiplicative hash picks the
  /// entry: the page number's low bits alone would put every segment's
  /// first page in one entry.
  static u32 cache_slot(u32 page) { return (page * 0x9E37'79B1u) >> (32 - kCachedPageBits); }

  u8* page_ptr(Addr addr);
  const u8* page_ptr_or_null(Addr addr) const {
    const u32 page = page_of(addr);
    const CachedPage& cached = page_cache_[cache_slot(page)];
    return cached.page == page ? cached.data : find_page(page);
  }
  /// The map lookup behind page_ptr_or_null, for a page the cache lacks:
  /// caches the page if it exists.
  const u8* find_page(u32 page) const;

  // unique_ptr to fixed arrays keeps page data stable across rehashing.
  std::unordered_map<u32, std::unique_ptr<u8[]>> pages_;
  /// A direct-mapped cache of pages_ (see cache_slot), so most accesses
  /// skip the map.  It names allocated pages only, so allocating a page
  /// cannot leave an entry stale; the one place pages are dropped
  /// (serialize_state's restore) clears it.
  mutable std::array<CachedPage, std::size_t{1} << kCachedPageBits> page_cache_{};
};

}  // namespace rse::mem
