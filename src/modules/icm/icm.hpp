// Instruction Checker Module (paper section 4.3).
//
// A CHECK with module# = ICM marks the *following* instruction as checked.
// At load time the program is statically parsed and every checked
// instruction's binary is stored contiguously in a dedicated CheckerMemory
// region of main memory.  At run time the ICM pairs each ICM CHECK it sees
// in Fetch_Out with the next dispatched instruction, fetches the redundant
// copy (through a 256-entry LRU Icm_Cache, falling back to a MAU memory
// request), compares the two binaries, and writes MATCH/MISMATCH to the
// CHECK's IOQ entry.  The module is synchronous: the CHECK is blocking and
// commit stalls until checkValid is set.
//
// Timeline on an Icm_Cache hit matches Figure 6: the checked instruction is
// visible to the module at t+2 (fetch t, dispatch t+1, one-cycle latch),
// the redundant copy is available at t+3, the comparison completes and the
// IOQ is written at t+4, and the commit stage sees the result at t+5.
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "rse/framework.hpp"
#include "rse/module.hpp"

namespace rse::modules {

struct IcmConfig {
  u32 cache_entries = 256;       // Icm_Cache capacity (instruction copies)
  u32 fetch_block_words = 8;     // checked instructions fetched per MAU request
  Addr checker_base = 0xC000'0000;  // CheckerMemory region in main memory

  bool operator==(const IcmConfig&) const = default;
};

struct IcmStats {
  u64 checks_started = 0;
  u64 checks_completed = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 mismatches = 0;
  u64 unknown_pc = 0;  // checked instruction had no CheckerMemory entry
  // Figure 6 timeline probes: cycle the module acquired the checked
  // instruction and cycle the result reached the IOQ, for the first
  // Icm_Cache miss and the first hit.
  Cycle first_miss_acquired = 0;
  Cycle first_miss_completed = 0;
  Cycle first_hit_acquired = 0;
  Cycle first_hit_completed = 0;
};

class IcmModule : public engine::Module {
 public:
  IcmModule(engine::Framework& framework, IcmConfig config = {});

  isa::ModuleId id() const override { return isa::ModuleId::kIcm; }
  const char* name() const override { return "ICM"; }
  engine::HookSet hooks() const override {
    return {engine::Hook::kDispatch, engine::Hook::kSquash, engine::Hook::kTick};
  }

  // ---- load-time interface (the "static parse") ----
  /// Register a checked instruction: appends its binary to CheckerMemory
  /// (contiguously, preserving program order for spatial locality) and
  /// records the PC -> CheckerMemory mapping.
  void register_checked_instruction(Addr pc, Word raw);
  /// Drop all registered instructions (new program load).
  void clear_checker_memory();

  // ---- module behaviour ----
  void on_dispatch(const engine::DispatchInfo& info, Cycle now) override;
  void on_squash(const engine::InstrTag& tag, Cycle now) override;
  void tick(Cycle now) override;
  void reset() override;

  const IcmStats& stats() const { return stats_; }

  /// Snapshot hook.  Requires quiescence (no MAU request outstanding, i.e.
  /// !mau_busy_) at capture: a kMemWait check's completion callback cannot be
  /// serialized.  CheckerMemory layout is also captured so a restored module
  /// matches even if registration order ever diverged from the fresh load.
  template <class Ar>
  void serialize_state(Ar& ar) {
    serialize_base(ar);
    ar.field(stats_);
    ar.field(pc_to_checker_);
    ar.field(checker_to_pc_);
    ar.field(checker_next_);
    ar.field(cache_);
    ar.field(cache_stamp_);
    ar.field(pending_);
    ar.field(mau_buffer_);
    ar.field(mau_busy_);
    ar.field(mau_addr_);
    ar.field(mau_words_);
  }

  /// True while a CheckerMemory fill is outstanding at the MAU (its
  /// completion callback holds a reference into this module).
  bool mau_pending() const { return mau_busy_; }

 private:
  struct PendingCheck {
    engine::InstrTag chk_tag;   // IOQ entry to write
    engine::InstrTag inst_tag;  // the checked instruction
    Addr pc = 0;
    Word pipeline_copy = 0;
    Word redundant_copy = 0;
    bool copy_ready = false;
    bool mismatch = false;
    bool was_hit = false;
    u8 spare0 = 0;  // the spares name the padding: always 0
    Cycle acquired_at = 0;
    Cycle write_at = 0;  // when the result reaches the IOQ
    enum class State { kAwaitInstr, kLookup, kMemWait, kDone } state = State::kAwaitInstr;
    u32 spare1 = 0;
  };

  /// Fully-associative LRU cache of checker-memory words, keyed by PC.
  bool cache_lookup(Addr pc, Word* out);
  void cache_insert(Addr pc, Word word);
  void start_mem_request(PendingCheck& check, Cycle now);

  IcmConfig config_;
  IcmStats stats_;

  // CheckerMemory layout
  std::unordered_map<Addr, Addr> pc_to_checker_;  // pc -> address in checker region
  std::unordered_map<Addr, Addr> checker_to_pc_;  // reverse (for block fills)
  Addr checker_next_ = 0;

  // Icm_Cache
  struct CacheEntry {
    Addr pc;
    Word word;
    u64 lru;
  };
  std::vector<CacheEntry> cache_;
  u64 cache_stamp_ = 0;

  std::deque<PendingCheck> pending_;
  std::vector<u8> mau_buffer_;
  bool mau_busy_ = false;
  Addr mau_addr_ = 0;
  u32 mau_words_ = 0;
};

}  // namespace rse::modules
