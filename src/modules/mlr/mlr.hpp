// Memory Layout Randomization module (paper section 4.1, Figure 3).
//
// The randomization task is split between the program loader (a "portable
// library") and the MLR hardware.  The loader assembles a special header
// describing the position-independent regions, passes its location/size via
// CHECK instructions, and requests randomization; the module parses the
// header through the MAU, adds entropy derived from the clock-cycle counter,
// and writes the randomized region bases back to memory.  For the
// position-dependent GOT, the loader passes old/new GOT and PLT locations
// and the module copies the GOT and rewrites the PLT (four entries per
// cycle, using the module's four parallel adders) without any software loop.
//
// Header layout in guest memory (words):
//   [0] code segment start     [1] code segment length
//   [2] static data length     [3] uninitialized data length
//   [4] shared library base    [5] stack segment base    [6] heap segment base
// Randomized results (written to the address given by the PI_RAND CHECK):
//   [0] randomized shared library base  [1] randomized stack base
//   [2] randomized heap base
//
// PLT entry layout (1 word): the address of the GOT entry the stub jumps
// through.  Rewriting replaces it with got_new + (entry - got_old); the
// module's four adders rewrite four entries per cycle.
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "rse/framework.hpp"
#include "rse/module.hpp"

namespace rse::modules {

// CHECK operation numbers for the MLR module.
inline constexpr u8 kMlrOpHdrLoc = 3;    // param = header address
inline constexpr u8 kMlrOpHdrSize = 4;   // param = header size in bytes
inline constexpr u8 kMlrOpPiRand = 5;    // param = result address (blocking)
inline constexpr u8 kMlrOpGotOld = 6;    // param = old GOT address
inline constexpr u8 kMlrOpGotSize = 7;   // param = GOT size in bytes
inline constexpr u8 kMlrOpGotNew = 8;    // param = new GOT address
inline constexpr u8 kMlrOpCopyGot = 9;   // (blocking)
inline constexpr u8 kMlrOpPltLoc = 10;   // param = PLT address
inline constexpr u8 kMlrOpPltSize = 11;  // param = PLT size in bytes
inline constexpr u8 kMlrOpWritePlt = 12; // (blocking)

struct MlrConfig {
  u32 buffer_bytes = 4096;     // GOT buffer == PLT buffer == header block size
  u32 parallel_adders = 4;     // PLT entries rewritten per cycle
  u32 region_align = 16;       // randomized bases are 16-byte aligned
  u32 entropy_pages = 256;     // randomization range (pages) per region
  u64 seed = 0x4D4C52;         // supplements the clock-cycle counter entropy

  bool operator==(const MlrConfig&) const = default;
};

struct MlrStats {
  u64 pi_randomizations = 0;
  u64 got_copies = 0;
  u64 plt_rewrites = 0;
  u64 plt_entries_rewritten = 0;
  Cycle last_op_cycles = 0;  // duration of the most recent blocking op
};

class MlrModule : public engine::Module {
 public:
  MlrModule(engine::Framework& framework, MlrConfig config = {});

  isa::ModuleId id() const override { return isa::ModuleId::kMlr; }
  const char* name() const override { return "MLR"; }
  engine::HookSet hooks() const override {
    return {engine::Hook::kDispatch, engine::Hook::kSquash, engine::Hook::kTick};
  }

  void on_dispatch(const engine::DispatchInfo& info, Cycle now) override;
  void on_squash(const engine::InstrTag& tag, Cycle now) override;
  void tick(Cycle now) override;
  void reset() override;

  /// Host-side entry point used by the guest OS loader: randomize the three
  /// position-independent bases directly (models the loader invoking the
  /// module before the application starts).  Returns the fixed cycle cost.
  struct RandomizedBases {
    Addr shlib_base;
    Addr stack_base;
    Addr heap_base;
  };
  RandomizedBases randomize_bases(Addr shlib, Addr stack, Addr heap, Cycle now);
  /// The fixed penalty of position-independent randomization (paper: 56).
  static constexpr Cycle kPiRandFixedCost = 56;

  /// Host-side runtime re-randomization (the paper's section 4.1 extension):
  /// copy the GOT to `new_got` and retarget every PLT entry (and nothing
  /// else — pointer-section fixups are the OS's job).  Performs the memory
  /// movement functionally and returns the number of PLT entries rewritten;
  /// the caller charges the cycle cost from the bus timing.
  u32 relocate_got(mem::MainMemory& memory, Addr old_got, Addr new_got, u32 got_bytes,
                   Addr plt, u32 plt_bytes);

  const MlrStats& stats() const { return stats_; }

  /// True while a blocking randomization op is in flight (its MAU callbacks
  /// chain through this module's state machine).
  bool op_in_flight() const { return state_ != OpState::kIdle; }

  /// Snapshot hook.  Requires quiescence (state_ == kIdle) at capture — the
  /// blocking-op state machine chains MAU submits inside callbacks.
  template <class Ar>
  void serialize_state(Ar& ar) {
    serialize_base(ar);
    ar.field(stats_);
    ar.field(rng_);
    ar.field(hdr_loc_);
    ar.field(hdr_size_);
    ar.field(pi_result_loc_);
    ar.field(got_old_);
    ar.field(got_size_);
    ar.field(got_new_);
    ar.field(plt_loc_);
    ar.field(plt_size_);
    ar.field(state_);
    ar.field(blocking_tag_);
    ar.field(blocking_live_);
    ar.field(op_started_);
    ar.field(rewrite_done_at_);
    ar.field(buffer_);
    ar.field(buffer2_);
  }

 private:
  enum class OpState : u8 { kIdle, kPiReadHdr, kPiWriteResults, kGotRead, kGotWrite,
                            kPltRead, kPltRewrite, kPltWrite };

  Addr randomize(Addr base, Cycle now);
  void finish_blocking(bool error, Cycle now);
  void start_pi_rand(Cycle now);
  void start_got_copy(Cycle now);
  void start_plt_write(Cycle now);

  MlrConfig config_;
  MlrStats stats_;
  Xorshift64 rng_;

  // parameter registers (Figure 3B, "From CHECK Instruction Parameters")
  Addr hdr_loc_ = 0;
  u32 hdr_size_ = 0;
  Addr pi_result_loc_ = 0;
  Addr got_old_ = 0;
  u32 got_size_ = 0;
  Addr got_new_ = 0;
  Addr plt_loc_ = 0;
  u32 plt_size_ = 0;

  // in-flight blocking operation
  OpState state_ = OpState::kIdle;
  engine::InstrTag blocking_tag_{};
  bool blocking_live_ = false;
  Cycle op_started_ = 0;
  Cycle rewrite_done_at_ = 0;
  std::vector<u8> buffer_;   // header / GOT buffer
  std::vector<u8> buffer2_;  // PLT buffer
};

}  // namespace rse::modules
