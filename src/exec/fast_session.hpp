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
//    syscall the session delegates or runs as an excursion is reported
//    once, after its registers and post-syscall PC are written into the
//    core and before its handler runs, so core.context() inside the
//    observer shows what the classic observer sees at that commit (for a
//    fast-executed instruction the core's context is not kept current);
//  - the instruction a bail rests on (an unexecuted syscall or an illegal
//    word) is never reported: the core commits and reports it;
//  - `tag` is zero and `thread` is core.thread();
//  - `now` is the session's clock: virtual_now() before the instruction
//    counts, or an excursion's cycle;
//  - with no observer on the core, the session runs the engine loop that
//    carries no reporting code, so an unobserved run costs what it did
//    before the session reported anything.
//
// Armed with a syscall schedule, the session additionally survives
// non-whitelisted syscalls: it runs the handler on the real guest OS as an
// *excursion* at exactly the cycle the classic run committed the syscall,
// replaying any suspension on the real scheduler, then re-lifts the context
// and continues fast.  Threaded and network prefixes become
// fast-forwardable this way.
//
// FastForwardController is the campaign-facing piece: it maps injection
// cycles to functional-stream positions with one instrumented golden replay
// (cpu::Core::functional_pos()), fast-forwards each eligible run to its
// boundary, transplants, applies the fault, and lets the cycle-accurate
// machine run the injection window and everything after it fully modeled.
// Switchover guarantees and the eligibility rules live in docs/execution.md.
#pragma once

#include <map>

#include "exec/block_cache.hpp"
#include "exec/fast_engine.hpp"
#include "os/guest_os.hpp"

namespace rse::exec {

struct FastSessionConfig {
  /// Strict mode (default, used by campaign fast-forward) delegates only
  /// syscalls whose behavior is independent of simulated time: print*, sbrk,
  /// rand.  Relaxed mode (rse_run --fast) additionally allows exit and
  /// clock — clock then reads *virtual* time (instructions + syscall costs),
  /// a documented divergence from the cycle-accurate run.  Relaxed users arm
  /// no syscall schedule, so a relaxed session never runs an excursion.
  bool relaxed = false;

  /// Syscall stream position -> classic commit cycle, recorded by
  /// FastForwardController::map_boundaries during the instrumented replay.
  /// Non-null arms bail-and-resume: a non-whitelisted syscall with an entry
  /// runs on the cycle-accurate machine (an excursion) at exactly that
  /// cycle and the session continues fast afterwards; without an entry the
  /// session still bails.  Not owned; must outlive the session.
  const std::map<u64, Cycle>* syscall_schedule = nullptr;

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
    kSyscall,  ///< PC rests ON an un-executed, non-resumable syscall
    kIllegal,  ///< PC rests on an undecodable word (or outside text)
    kSuspend,  ///< a syscall *was* executed and suspended the guest in a way
               ///< fast mode cannot continue from (multithreaded wake-up,
               ///< suspension unresolved within the run limit)
  };

  /// The guest must be load()ed and single-threaded-so-far; the session
  /// starts from the core's current architectural context.
  explicit FastSession(os::GuestOs& guest, FastSessionConfig config = {});

  /// Fast-execute until `target` total instructions (counted exactly like
  /// cpu::Core::functional_pos()), the process exits, or a bail.  On a
  /// kSyscall/kIllegal bail the state rests ON the un-executed instruction;
  /// on a kSuspend bail the syscall has executed and the lifted context is
  /// the thread the scheduler left on the core — either way a transplant
  /// hands the cycle-accurate core a consistent context.  A kBoundary that
  /// lands inside an excursion's suspension leaves the core suspended: the
  /// caller transplants there and steps the machine, which wakes it.
  Status run_until(u64 target_instructions);

  /// Run the guest to its end: fast until it exits or the guest's run limit
  /// (instructions never outnumber cycles, so the limit bounds both), and on
  /// a bail transplant at virtual_now() and finish on the cycle-accurate
  /// core (GuestOs::run).  Returns the fast leg's status: kBail means the
  /// core finished the run.
  Status run_to_end();

  u64 executed() const { return engine_.executed(); }
  BailReason bail_reason() const { return bail_; }
  /// Virtual time: cycles at session start + instructions + syscall stalls,
  /// floored at the machine clock (excursions advance the real clock).
  Cycle virtual_now() const;

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
  /// eligible fault class, so skipping its check drops no detection.  When
  /// the boundary landed inside a suspension (between a syscall's commit and
  /// the scheduler's wake-up), the core is left suspended; the wake-up
  /// replays at its absolute classic cycle once the caller steps the machine.
  void transplant(Cycle target_cycle);

 private:
  bool syscall_allowed(u32 number) const;
  bool resume_eligible(u32 number) const;
  void commit(engine::CommitInfo info) override;
  void report(Cycle now, engine::CommitInfo info) const;
  cpu::OsClient::SyscallResult commit_syscall(Cycle now);
  Status execute_syscall();
  Status execute_syscall_excursion(u64 target);
  Status resume_from_suspension();

  os::GuestOs* guest_;
  os::Machine* machine_;
  FastSessionConfig config_;
  BlockCache cache_;
  FastEngine engine_;
  Cycle start_now_ = 0;
  Cycle stall_accum_ = 0;
  Cycle floor_ = 0;  // machine clock after the last replayed suspension
  BailReason bail_ = BailReason::kNone;
};

}  // namespace rse::exec
