// Timing-only set-associative cache model (tags + LRU + dirty bits, no data —
// functional values live in MainMemory).  Matches the paper's simulated
// hierarchy: il1/dl1 8 KB direct-mapped, il2 64 KB 2-way, dl2 128 KB 2-way,
// with write-back write-allocate policy.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "mem/bus.hpp"

namespace rse::mem {

struct CacheConfig {
  std::string name;
  u32 size_bytes = 8 * 1024;
  u32 assoc = 1;
  u32 block_bytes = 32;
  Cycle hit_latency = 1;

  bool operator==(const CacheConfig&) const = default;
};

struct CacheStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 writebacks = 0;

  double miss_rate() const { return accesses == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(accesses); }
};

/// A level that can satisfy block fills: either another cache or the bus.
class MemLevel {
 public:
  virtual ~MemLevel() = default;
  /// Access `bytes` at `addr` (read or write) starting at `now`; returns the
  /// completion cycle.
  virtual Cycle access(Cycle now, Addr addr, u32 bytes, bool write) = 0;
};

/// Bottom of the hierarchy: main memory behind the arbitrated bus.
class BusMemory : public MemLevel {
 public:
  BusMemory(BusArbiter& arbiter, BusSource source) : arbiter_(&arbiter), source_(source) {}

  Cycle access(Cycle now, Addr, u32 bytes, bool) override {
    return arbiter_->request(now, bytes, source_);
  }

 private:
  BusArbiter* arbiter_;
  BusSource source_;
};

/// `final`, so a call through a Cache pointer (the core's L1s) is direct.
class Cache final : public MemLevel {
 public:
  Cache(CacheConfig config, MemLevel& next);

  /// Access a single datum (<= block size) at `addr`.  Returns the cycle at
  /// which the datum is available (read) or accepted (write).
  Cycle access(Cycle now, Addr addr, u32 bytes, bool write) override;

  /// Invalidate everything (used when the guest rewrites code, and by tests).
  void flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

  /// Snapshot hook: tag/LRU/dirty state plus statistics (geometry is config).
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(stamp_);
    ar.field(lines_);
    ar.field(stats_);
  }

 private:
  /// No padding (`spare` names it), so a snapshot copies the lines in one
  /// block.
  struct Line {
    bool valid = false;
    bool dirty = false;
    u16 spare = 0;  // always 0
    u32 tag = 0;
    u64 lru = 0;  // last-touch stamp
  };

  u32 set_index(Addr addr) const { return (addr >> block_shift_) & (num_sets_ - 1); }
  u32 tag_of(Addr addr) const { return addr >> (block_shift_ + set_shift_); }

  CacheConfig config_;
  MemLevel* next_;
  u32 num_sets_;
  u32 block_shift_;
  u32 set_shift_;
  u64 stamp_ = 0;
  std::vector<Line> lines_;  // num_sets_ * assoc, set-major
  CacheStats stats_;
};

}  // namespace rse::mem
