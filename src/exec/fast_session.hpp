// FastSession couples the fast functional engine with a loaded Machine +
// GuestOs: it lifts the architectural context off the cycle-accurate core,
// executes in fast mode (delegating whitelisted syscalls to the guest OS so
// output/brk/rng state stay exactly on the classic trajectory), and
// transplants the resulting state back into cpu::Core.
//
// A session reports its commits to the core's commit observer
// (cpu::Core::set_commit_observer), so a run that starts fast and bails
// into the core is one commit stream: every committed instruction reaches
// the observer once, in program order, with the engine::CommitInfo the core
// delivers for it.  The contract:
//  - each fast-executed instruction is reported after it executes; each
//    syscall the session delegates is reported once, after its registers
//    and post-syscall PC are written into the core and before its handler
//    runs, so core.context() inside the observer shows what the classic
//    observer sees at that commit (for a fast-executed instruction the
//    core's context is not kept current);
//  - the instruction a bail rests on (an undelegated syscall or an illegal
//    word) is never reported: the core commits and reports it;
//  - `tag` is zero and `thread` is core.thread();
//  - `now` is the session's clock: virtual_now() before the instruction
//    counts;
//  - with no observer on the core, the session runs the engine loop that
//    carries no reporting code, so an unobserved run costs what it did
//    before the session reported anything.
//
// Any syscall outside the whitelist ends the fast leg: the session bails
// with the PC on it, and the cycle-accurate core takes over from there.
// Every handover goes one way, fast to core.
//
// FastForwardController is the campaign-facing piece: it maps injection
// cycles to functional-stream positions with one instrumented golden replay
// (cpu::Core::functional_pos()), fast-forwards each eligible run to its
// boundary, transplants, applies the fault, and lets the cycle-accurate
// machine run the injection window and everything after it fully modeled.
// Switchover guarantees and the eligibility rules live in docs/execution.md.
#pragma once

#include "exec/block_cache.hpp"
#include "exec/fast_engine.hpp"
#include "os/guest_os.hpp"

namespace rse::exec {

struct FastSessionConfig {
  /// Strict mode (default, used by campaign fast-forward) delegates only
  /// syscalls whose behavior is independent of simulated time: print*, sbrk,
  /// rand.  Relaxed mode (rse_run --fast) additionally allows exit and
  /// clock — clock then reads *virtual* time (instructions + syscall costs),
  /// a documented divergence from the cycle-accurate run.
  bool relaxed = false;

  /// Superblock chaining in the session's block cache (BlockCache::
  /// set_chaining).  Architecturally invisible — dispatch shape only; the
  /// differential suites run both settings.
  bool superblocks = true;
};

class FastSession : private FastEngine::CommitSink {
 public:
  enum class Status {
    kBoundary,  ///< reached the requested instruction-count target
    kExited,    ///< the guest process finished while in fast mode
    kBail,      ///< hit work only the cycle-accurate core can run
  };

  enum class BailReason {
    kNone,
    kSyscall,  ///< PC rests ON an un-executed syscall outside the whitelist
    kIllegal,  ///< PC rests on an undecodable word (or outside text)
  };

  /// The guest must be load()ed and single-threaded-so-far; the session
  /// starts from the core's current architectural context.
  explicit FastSession(os::GuestOs& guest, FastSessionConfig config = {});

  /// Fast-execute until `target` total instructions (counted exactly like
  /// cpu::Core::functional_pos()), the process exits, or a bail.  On a bail
  /// the state rests ON the un-executed instruction, so a transplant hands
  /// the cycle-accurate core a consistent context.
  Status run_until(u64 target_instructions);

  /// Run the guest to its end: fast until it exits or the guest's run limit
  /// (instructions never outnumber cycles, so the limit bounds both), and on
  /// a bail transplant at virtual_now() and finish on the cycle-accurate
  /// core (GuestOs::run).  Returns the fast leg's status: kBail means the
  /// core finished the run.
  Status run_to_end();

  u64 executed() const { return engine_.executed(); }
  BailReason bail_reason() const { return bail_; }
  /// Virtual time: cycles at session start + instructions + syscall stalls.
  Cycle virtual_now() const { return start_now_ + engine_.executed() + stall_accum_; }

  const FastEngine& engine() const { return engine_; }
  BlockCache& block_cache() { return cache_; }

  /// Seed the block cache with the static CFG's leaders (analysis/cfg.hpp)
  /// so dynamic blocks line up with the statically recovered ones.
  void seed_leaders(const isa::Program& program);

  /// Transplant fast-mode architectural state (regs, pc) into the
  /// cycle-accurate core and warp the machine clock to `target_cycle`.
  /// Memory needs no copy — the engine wrote the machine's MainMemory in
  /// place.  The CFC's per-thread stream state is cleared: the first
  /// post-transplant transition is fault-independent for every fast-forward-
  /// eligible fault class, so skipping its check drops no detection.
  void transplant(Cycle target_cycle);

 private:
  bool syscall_allowed(u32 number) const;
  void commit(engine::CommitInfo info) override;
  void report(Cycle now, engine::CommitInfo info) const;
  Status execute_syscall();

  os::GuestOs* guest_;
  os::Machine* machine_;
  FastSessionConfig config_;
  BlockCache cache_;
  FastEngine engine_;
  Cycle start_now_ = 0;
  Cycle stall_accum_ = 0;
  BailReason bail_ = BailReason::kNone;
};

}  // namespace rse::exec
