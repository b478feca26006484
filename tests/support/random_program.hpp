// Random guest-program generator for differential testing: structured,
// always-terminating programs mixing ALU ops, memory traffic on a small
// arena, forward branches, bounded loops, and calls.  The epilogue dumps the
// working registers into the arena so two executions can be compared by
// memory content alone.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace rse::testing {

struct RandomProgramOptions {
  u32 blocks = 12;          // basic blocks
  u32 ops_per_block = 8;    // ALU/memory ops per block
  bool with_memory = true;  // loads/stores on the arena
  bool with_loops = true;   // bounded counted loops
  bool with_calls = false;  // jal/jr leaf calls
  /// Call-heavy shape for interprocedural-footprint testing: framed helpers
  /// (real sp frames), bounded recursion, indirect calls through a
  /// la-materialized function pointer, and an arena base kept live in t8
  /// across the calls (resolvable only when callee summaries prove t8
  /// preserved).  Implies with_calls-style callees at the bottom.
  bool call_heavy = false;
  /// Pointer-argument callees for context-sensitivity testing: call sites
  /// pass a buffer base through one of $a0..$a3 — an absolute arena pointer,
  /// an sp-relative scratch pointer, or a gp-relative arena pointer — and
  /// the callee walks the buffer through the argument register.  The
  /// context-insensitive join of those bases is unknown, so the accesses
  /// resolve only under per-call-site summary cloning.
  bool arg_pointers = false;
  /// Strided-walk callees for field-sensitivity testing: call sites pass a
  /// buffer base, element count, and byte step through $a0..$a2 to a shared
  /// callee that multiplies its induction variable by the step.  Steps mix
  /// word, struct-field, and multi-page strides over a dedicated matrix
  /// region sized for the largest walk, so the strided-interval domain must
  /// fold exact residue pages while staying sound.
  bool strided_loops = false;
  /// Bounded recursive frame writer for $sp-depth context testing: each
  /// rung pushes a real stack frame and stores through a slot pointer that
  /// advances one word per rung.
  bool recursive_writer = false;
  /// Emit mid-program print-int syscalls at random block boundaries.  Each
  /// one is an observable synchronization point: the differential harness
  /// snapshots the full register file there in both execution modes.
  bool print_progress = false;
  /// Emit sys_yield at random block boundaries.  Yield is outside every
  /// fast-mode whitelist and suspends the calling thread, so a fast session
  /// bails at the first one and the cycle-accurate core runs the rest.
  bool yield_points = false;
  /// Attack-shaped traffic for the security suites (docs/security.md):
  /// framed helpers that store far past their own $sp envelope (deep
  /// out-of-frame writes into caller stack territory, the stack-smash write
  /// shape) and an in-memory jump table whose entries are re-pointed between
  /// address-taken handlers before each indirect dispatch (the GOT-clobber
  /// write shape).  Everything stays semantically legal, so the static
  /// DDT/CFC modes must stay violation-free on these programs at every
  /// context depth — the adversarial-shape false-positive property.
  bool attack_patterns = false;
  /// Emit self-modifying text patches: a block copies a donor instruction
  /// word over a later patch site, then crosses a serializing syscall plus a
  /// padding run longer than the core's fetch buffer before executing the
  /// patched word.  The barrier makes the program's behavior independent of
  /// the OoO core's stale-fetch window, so fast mode and the cycle-accurate
  /// core must agree exactly.
  bool self_modifying = false;
  u32 arena_words = 64;
};

/// Address of the register-dump area relative to the arena symbol.
inline constexpr u32 kDumpOffsetWords = 64;

inline std::string generate_random_program(u64 seed, const RandomProgramOptions& options = {}) {
  Xorshift64 rng(seed);
  std::ostringstream s;
  // Working registers: t0..t7 (r8..r15) and s1..s7 (r17..r23); s0 = &arena.
  const std::vector<std::string> regs = {"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
                                         "s1", "s2", "s3", "s4", "s5", "s6", "s7"};
  auto reg = [&] { return regs[rng.next_below(regs.size())]; };

  s << ".data\n.align 4\narena: .space "
    << (options.arena_words + kDumpOffsetWords + 16) * 4 << "\n";
  if (options.strided_loops || options.recursive_writer) {
    // Dedicated walk region: covers the widest strided walk (three pages of
    // step times three steps) plus the recursive writer's slots.
    s << "smatrix: .space 40960\n";
  }
  if (options.attack_patterns) s << "jtab: .space 32\n";
  s << ".text\nmain:\n  la s0, arena\n";
  if (options.call_heavy) s << "  la t8, arena\n";
  if (options.attack_patterns) {
    // Seed the jump table: every entry starts on a handler (address-taken,
    // so coarse CFI admits any later re-pointing among them).
    s << "  la t9, jtab\n";
    for (u32 e = 0; e < 8; ++e) {
      s << "  la v0, jthandler_" << e % 3 << "\n";
      s << "  sw v0, " << e * 4 << "(t9)\n";
    }
  }
  for (const std::string& r : regs) {
    s << "  li " << r << ", " << static_cast<i64>(rng.next_in(-40000, 40000)) << "\n";
  }

  auto emit_op = [&] {
    switch (rng.next_below(options.with_memory ? 14 : 10)) {
      case 0: s << "  add " << reg() << ", " << reg() << ", " << reg() << "\n"; break;
      case 1: s << "  sub " << reg() << ", " << reg() << ", " << reg() << "\n"; break;
      case 2: s << "  xor " << reg() << ", " << reg() << ", " << reg() << "\n"; break;
      case 3: s << "  and " << reg() << ", " << reg() << ", " << reg() << "\n"; break;
      case 4: s << "  or " << reg() << ", " << reg() << ", " << reg() << "\n"; break;
      case 5: s << "  mul " << reg() << ", " << reg() << ", " << reg() << "\n"; break;
      case 6:
        s << "  sll " << reg() << ", " << reg() << ", " << rng.next_below(31) << "\n";
        break;
      case 7:
        s << "  sra " << reg() << ", " << reg() << ", " << rng.next_below(31) << "\n";
        break;
      case 8: s << "  slt " << reg() << ", " << reg() << ", " << reg() << "\n"; break;
      case 9:
        s << "  addi " << reg() << ", " << reg() << ", "
          << static_cast<i64>(rng.next_in(-1000, 1000)) << "\n";
        break;
      case 10:
      case 11:
        s << "  sw " << reg() << ", " << rng.next_below(options.arena_words) * 4 << "(s0)\n";
        break;
      case 12:
        s << "  lw " << reg() << ", " << rng.next_below(options.arena_words) * 4 << "(s0)\n";
        break;
      case 13:
        s << "  lb " << reg() << ", " << rng.next_below(options.arena_words * 4) << "(s0)\n";
        break;
    }
  };

  u32 loop_id = 0;
  u32 patch_count = 0;
  bool argfill_used[4] = {false, false, false, false};
  bool stwalk_used = false, recwr_used = false;
  bool oobfw_used = false, jtab_used = false;
  for (u32 block = 0; block < options.blocks; ++block) {
    s << "block_" << block << ":\n";
    if (options.print_progress && rng.next_below(3) == 0) {
      // Observable sync point: print a working register's current value.
      s << "  move a0, " << reg() << "\n  li v0, 2\n  syscall\n";
    }
    if (options.yield_points && rng.next_below(3) == 0) {
      // Suspension point: the single thread yields and the scheduler
      // immediately re-selects it.  Only the cycle-accurate core runs it.
      s << "  li v0, 8\n  syscall\n";
    }
    if (options.self_modifying && rng.next_below(3) == 0) {
      // Patch a later site in this block with a donor instruction word, then
      // serialize (syscall) and pad past the fetch buffer before running it.
      // The patch executes before its site's first execution in program
      // order, so functional and OoO execution see the same instruction.
      const u32 p = patch_count++;
      s << "  la v1, donor_" << p << "\n";
      s << "  lw v0, 0(v1)\n";
      s << "  la t9, patch_" << p << "\n";
      s << "  sw v0, 0(t9)\n";
      s << "  li a0, " << p << "\n  li v0, 2\n  syscall\n";
      for (int pad = 0; pad < 8; ++pad) s << "  addi t9, t9, 0\n";
      s << "patch_" << p << ":\n";
      s << "  addi s1, s1, 1\n";  // overwritten by donor_<p> before it runs
    }
    const bool looped = options.with_loops && rng.next_below(3) == 0;
    if (looped) {
      // bounded counted loop around this block's body (uses at/ra-free regs)
      s << "  li v1, 0\nloop_" << loop_id << ":\n";
    }
    for (u32 op = 0; op < options.ops_per_block; ++op) emit_op();
    if (looped) {
      s << "  addi v1, v1, 1\n";
      s << "  li v0, " << (2 + rng.next_below(6)) << "\n";
      s << "  blt v1, v0, loop_" << loop_id << "\n";
      ++loop_id;
    }
    if (block + 1 < options.blocks && rng.next_below(2) == 0) {
      // data-dependent forward branch (forward targets keep it terminating)
      const u32 target = block + 1 + rng.next_below(options.blocks - block - 1) ;
      const char* kinds[] = {"beq", "bne", "blt", "bge"};
      s << "  " << kinds[rng.next_below(4)] << " " << reg() << ", " << reg() << ", block_"
        << (target % options.blocks <= block ? block + 1 : target) << "\n";
    }
    if (options.with_calls && rng.next_below(3) == 0) {
      s << "  jal leaf_" << rng.next_below(3) << "\n";
    }
    if (options.call_heavy && rng.next_below(2) == 0) {
      switch (rng.next_below(3)) {
        case 0:  // framed helper, direct
          s << "  move a0, " << reg() << "\n";
          s << "  jal helper_" << rng.next_below(3) << "\n";
          break;
        case 1:  // indirect call through a la-materialized pointer
          s << "  la t9, ptr_helper_" << rng.next_below(3) << "\n";
          s << "  move a0, " << reg() << "\n";
          s << "  jalr t9\n";
          break;
        case 2:  // bounded recursion
          s << "  li a0, " << 1 + rng.next_below(5) << "\n";
          s << "  jal rec\n";
          break;
      }
      // The arena base in t8 is live across the call: this store resolves
      // only if the analysis proves the callee leaves t8 alone.
      s << "  sw " << reg() << ", " << rng.next_below(options.arena_words) * 4 << "(t8)\n";
    }
    if (options.strided_loops && rng.next_below(2) == 0) {
      // Strided walk through the shared callee: base in a0, element count
      // in a1, byte step in a2.  The widest span (3 * 12288 + offset + 4)
      // stays inside smatrix.
      const u32 steps[] = {4, 8, 12, 4096, 8192, 12288};
      s << "  la a0, smatrix\n";
      s << "  addi a0, a0, " << rng.next_below(8) * 4 << "\n";
      s << "  li a1, " << 2 + rng.next_below(3) << "\n";
      s << "  li a2, " << steps[rng.next_below(6)] << "\n";
      s << "  jal stwalk\n";
      stwalk_used = true;
    }
    if (options.recursive_writer && rng.next_below(2) == 0) {
      // Recursive frame writer: slot pointer in a0, depth in a1.
      s << "  la a0, smatrix\n";
      s << "  addi a0, a0, " << rng.next_below(8) * 4 << "\n";
      s << "  li a1, " << 1 + rng.next_below(4) << "\n";
      s << "  jal recwr\n";
      recwr_used = true;
    }
    if (options.attack_patterns && rng.next_below(2) == 0) {
      if (rng.next_below(2) == 0) {
        // Out-of-frame write shape: a framed helper stores deep below its
        // own $sp envelope and one word above its frame's top (caller stack
        // territory nothing ever reads back).
        s << "  jal oobfw\n";
        oobfw_used = true;
      } else {
        // Jump-table clobber shape: re-point a table entry at another
        // address-taken handler, then dispatch through the clobbered slot.
        const u32 e = rng.next_below(8);
        s << "  la t9, jtab\n";
        s << "  la v0, jthandler_" << rng.next_below(3) << "\n";
        s << "  sw v0, " << e * 4 << "(t9)\n";
        s << "  lw v1, " << e * 4 << "(t9)\n";
        s << "  jalr ra, v1\n";
        jtab_used = true;
      }
    }
    if (options.arg_pointers && rng.next_below(2) == 0) {
      const u32 k = rng.next_below(4);        // pointer register a0..a3
      const u32 c = (k + 1) % 4;              // word count in the next a-reg
      switch (rng.next_below(3)) {
        case 0:  // absolute pointer into the arena
          s << "  la a" << k << ", arena\n";
          s << "  addi a" << k << ", a" << k << ", "
            << rng.next_below(options.arena_words - 8) * 4 << "\n";
          break;
        case 1:  // pointer to a stack-local scratch area below main's sp
          s << "  addi a" << k << ", sp, -" << 32 + rng.next_below(9) * 4 << "\n";
          break;
        case 2:  // gp-relative pointer into the arena (the loader pins gp = 0)
          s << "  la a" << k << ", arena\n";
          s << "  add a" << k << ", a" << k << ", gp\n";
          s << "  addi a" << k << ", a" << k << ", "
            << rng.next_below(options.arena_words - 8) * 4 << "\n";
          break;
      }
      s << "  li a" << c << ", " << 2 + rng.next_below(5) << "\n";
      s << "  jal argfill_" << k << "\n";
      argfill_used[k] = true;
    }
  }

  // Epilogue: dump every working register into the arena, then exit.
  s << "block_" << options.blocks << ":\n";
  for (std::size_t i = 0; i < regs.size(); ++i) {
    s << "  sw " << regs[i] << ", " << (kDumpOffsetWords + i) * 4 << "(s0)\n";
  }
  s << "  li a0, 0\n  li v0, 1\n  syscall\n";

  // Donor words for the self-modifying patches: single ALU instructions
  // placed after the exit, never executed in place, only copied.
  for (u32 p = 0; p < patch_count; ++p) {
    s << "donor_" << p << ":\n";
    switch (rng.next_below(4)) {
      case 0: s << "  xor s2, s2, s4\n"; break;
      case 1: s << "  addi t4, t4, " << 1 + rng.next_below(64) << "\n"; break;
      case 2: s << "  sub s5, s5, t1\n"; break;
      case 3: s << "  or t6, t6, s3\n"; break;
    }
  }

  if (options.with_calls || options.call_heavy) {
    for (int leaf = 0; leaf < 3; ++leaf) {
      s << "leaf_" << leaf << ":\n";
      s << "  xor t0, t1, t2\n  addi t3, t3, " << leaf + 1 << "\n  jr ra\n";
    }
  }
  if (options.call_heavy) {
    for (int h = 0; h < 3; ++h) {
      // Framed helpers: spill ra and a scratch word, compute into v1.
      s << "helper_" << h << ":\n";
      s << "  addi sp, sp, -8\n  sw ra, 4(sp)\n  sw a0, 0(sp)\n";
      s << "  sll v1, a0, " << h + 1 << "\n  xor v1, v1, a0\n";
      s << "  lw ra, 4(sp)\n  addi sp, sp, 8\n  jr ra\n";
      // Leaf variants reachable only through jalr (address-taken).
      s << "ptr_helper_" << h << ":\n";
      s << "  addi v1, a0, " << 7 * (h + 1) << "\n  jr ra\n";
    }
    // Bounded recursion: depth = initial a0 (the generator keeps it small).
    s << "rec:\n";
    s << "  addi sp, sp, -8\n  sw ra, 4(sp)\n  sw a0, 0(sp)\n";
    s << "  bge r0, a0, rec_done\n";
    s << "  addi a0, a0, -1\n  jal rec\n";
    s << "rec_done:\n";
    s << "  lw a0, 0(sp)\n  lw ra, 4(sp)\n  addi sp, sp, 8\n  jr ra\n";
  }
  if (stwalk_used) {
    // Shared strided walker; only v0/v1/t9 are clobbered (plus the a-regs
    // the caller just set), so the working registers stay call-preserved.
    s << "stwalk:\n";
    s << "  li v1, 0\n";
    s << "stwl:\n";
    s << "  mul t9, v1, a2\n";
    s << "  add t9, t9, a0\n";
    s << "  lw v0, 0(t9)\n";
    s << "  addi v0, v0, 1\n";
    s << "  sw v0, 0(t9)\n";
    s << "  addi v1, v1, 1\n";
    s << "  blt v1, a1, stwl\n";
    s << "  jr ra\n";
  }
  if (recwr_used) {
    // Recursive frame writer: depth = initial a1, one frame and one slot
    // store per rung.
    s << "recwr:\n";
    s << "  addi sp, sp, -8\n  sw ra, 4(sp)\n  sw a1, 0(sp)\n";
    s << "  sw a1, 0(a0)\n";
    s << "  bge r0, a1, recwr_done\n";
    s << "  addi a0, a0, 4\n  addi a1, a1, -1\n  jal recwr\n";
    s << "recwr_done:\n";
    s << "  lw a1, 0(sp)\n  lw ra, 4(sp)\n  addi sp, sp, 8\n  jr ra\n";
  }
  if (oobfw_used) {
    // Framed helper writing past its own envelope in both directions: four
    // pages below its sp (deep stack territory) and one word above its
    // 16-byte frame.  Both stores are machine-legal and dead — the property
    // suites pin that the static modes neither crash nor false-positive on
    // this write shape.
    s << "oobfw:\n";
    s << "  addi sp, sp, -16\n  sw ra, 12(sp)\n";
    s << "  sw v1, -16384(sp)\n";
    s << "  lw v0, -16384(sp)\n";
    s << "  sw v0, 16(sp)\n";
    s << "  lw ra, 12(sp)\n  addi sp, sp, 16\n  jr ra\n";
  }
  if (jtab_used || options.attack_patterns) {
    // Jump-table handlers: reached only through jalr (never jal), so their
    // returns fall back to the CFC's text-range check.  Each nudges one
    // working register deterministically.
    for (int h = 0; h < 3; ++h) {
      s << "jthandler_" << h << ":\n";
      s << "  addi s" << h + 1 << ", s" << h + 1 << ", " << 7 * h + 3 << "\n";
      s << "  jr ra\n";
    }
  }
  if (options.arg_pointers) {
    // argfill_<k> walks a<k+1>-many words through the buffer base received
    // in $a<k>.  Only v0/v1/t9 are clobbered, so t8/s0 stay call-preserved.
    // The count rides in a register (not an immediate bound) so a body
    // reached only through the exit syscall's lexical fall-through joins to
    // an unknown range instead of fabricating a small resolved one; bodies
    // are emitted only for callees some block actually calls.
    for (int k = 0; k < 4; ++k) {
      if (!argfill_used[k]) continue;
      s << "argfill_" << k << ":\n";
      s << "  li v1, 0\n";
      s << "afl_" << k << ":\n";
      s << "  sll t9, v1, 2\n";
      s << "  add t9, t9, a" << k << "\n";
      s << "  lw v0, 0(t9)\n";
      s << "  addi v0, v0, 1\n";
      s << "  sw v0, 0(t9)\n";
      s << "  addi v1, v1, 1\n";
      s << "  blt v1, a" << (k + 1) % 4 << ", afl_" << k << "\n";
      s << "  jr ra\n";
    }
  }
  return s.str();
}

}  // namespace rse::testing
