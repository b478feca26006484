// Fast functional execution engine: architectural-state-only interpretation
// over the decoded basic-block cache, with a direct-memory (DMI) fast path
// that resolves guest RAM to a host page pointer instead of going through
// the timed mem::Bus/cache hierarchy per access (the flat-RAM pattern of the
// Hazard3 rvcpp core — see SNIPPETS.md).
//
// Architectural semantics are isa::execute (isa/semantics.hpp), the one
// definition the interpreter and the out-of-order core also instantiate;
// tests/isa/semantics_test.cpp judges all of them against a hand-written
// per-opcode table.  This engine adds only direct-memory access and text
// invalidation.  It never executes syscalls or illegal words — it stops ON
// them with the PC still pointing at the instruction, so the caller
// (FastSession) can either delegate to the guest OS or bail into the
// cycle-accurate core with consistent state.
//
// Stores into the text segment invalidate overlapping cached blocks and end
// the current block, so self-modifying code re-decodes before its next
// execution — matching what a functional model must observe (the OoO core's
// stale-fetch-buffer window is a microarchitectural artifact the fast path
// deliberately does not reproduce; see docs/execution.md).
#pragma once

#include <array>

#include "exec/block_cache.hpp"
#include "isa/instruction.hpp"
#include "mem/main_memory.hpp"
#include "rse/frame_types.hpp"

namespace rse::exec {

class FastEngine {
 public:
  /// [text_lo, text_hi): executable range.  Fetches outside it stop as
  /// illegal (mirroring the core's execute protection); stores inside it
  /// invalidate the block cache.
  FastEngine(mem::MainMemory& memory, BlockCache& cache, Addr text_lo, Addr text_hi)
      : memory_(&memory), cache_(&cache), text_lo_(text_lo), text_hi_(text_hi) {
    // Superblock formation must know where text ends: chained decode never
    // follows a jump outside the executable range.
    cache_->set_text_range(text_lo, text_hi);
  }

  enum class Stop {
    kBoundary,  ///< executed() reached the requested target
    kSyscall,   ///< PC rests on an unexecuted syscall instruction
    kIllegal,   ///< PC rests on an undecodable word (or outside text)
  };

  /// Receiver of the engine's commits (FastSession).  After each instruction
  /// executes, and before executed() counts it, the engine hands over the
  /// engine::CommitInfo the cycle-accurate core commits for it: pc, instr
  /// (instr.raw is the word as fetched), and for loads and stores the
  /// alignment-masked effective address and the memory value (the extended
  /// loaded value, or the unmasked rt); both are zero otherwise.  `tag` and
  /// `thread` are left for the receiver.  Syscalls and illegal words stop
  /// the engine unexecuted and are not handed over.
  class CommitSink {
   public:
    virtual void commit(engine::CommitInfo info) = 0;

   protected:
    ~CommitSink() = default;
  };

  /// Execute until total executed() reaches `target` or a syscall/illegal
  /// word is reached, whichever is first.  Every executed instruction goes
  /// to `sink` when one is given; without one the loop carries no reporting
  /// code at all.
  Stop run_until(u64 target, CommitSink* sink = nullptr);

  // ---- architectural state ----
  Word reg(u8 index) const { return regs_[index]; }
  void set_reg(u8 index, Word value) {
    if (index != 0) regs_[index] = value;
  }
  const std::array<Word, isa::kNumRegs>& regs() const { return regs_; }
  void set_regs(const std::array<Word, isa::kNumRegs>& regs) {
    regs_ = regs;
    regs_[0] = 0;
  }
  Addr pc() const { return pc_; }
  void set_pc(Addr pc) { pc_ = pc; }

  /// Instructions executed so far (CHKs count; unexecuted stop instructions
  /// do not) — the same stream position cpu::Core::functional_pos() tracks.
  u64 executed() const { return executed_; }
  /// Pre-credit externally executed instructions (FastSession counts the
  /// syscalls it delegates to the guest OS here).
  void credit_instruction() { ++executed_; }
  /// CHKs among executed(): cpu::CoreStats reports them separately from
  /// `instructions`, so instruction-count comparisons subtract these.
  u64 chks_executed() const { return chks_executed_; }

 private:
  /// run_until's loop; the kReport copy hands every instruction to `sink`.
  template <bool kReport>
  Stop run(u64 target, CommitSink* sink);

  // One-entry data TLB: guest page -> host pointer.  Pages are stable
  // (mem::MainMemory keeps them behind unique_ptr), so entries stay valid
  // until the translation changes page.
  u8* data_host(Addr addr) {
    const u32 page = mem::page_of(addr);
    if (page != dtlb_page_) {
      dtlb_page_ = page;
      dtlb_host_ = memory_->host_page(addr);
    }
    return dtlb_host_ + (addr & (mem::kPageBytes - 1));
  }

  mem::MainMemory* memory_;
  BlockCache* cache_;
  Addr text_lo_;
  Addr text_hi_;

  std::array<Word, isa::kNumRegs> regs_{};
  Addr pc_ = 0;
  u64 executed_ = 0;
  u64 chks_executed_ = 0;

  u32 dtlb_page_ = ~0u;
  u8* dtlb_host_ = nullptr;
};

}  // namespace rse::exec
