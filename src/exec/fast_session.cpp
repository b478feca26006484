#include "exec/fast_session.hpp"

#include <algorithm>

#include "analysis/cfg.hpp"

namespace rse::exec {

FastSession::FastSession(os::GuestOs& guest, FastSessionConfig config)
    : guest_(&guest),
      machine_(&guest.machine()),
      config_(config),
      cache_(machine_->memory()),
      engine_(machine_->memory(), cache_, machine_->core().text_lo(),
              machine_->core().text_hi()) {
  cache_.set_chaining(config_.superblocks);
  const cpu::ThreadContext ctx = machine_->core().context();
  engine_.set_regs(ctx.regs);
  engine_.set_pc(ctx.pc);
  start_now_ = machine_->now();
}

void FastSession::seed_leaders(const isa::Program& program) {
  const analysis::ControlFlowGraph cfg = analysis::build_cfg(program);
  for (const analysis::BasicBlock& block : cfg.blocks) cache_.add_leader(block.start);
}

Cycle FastSession::virtual_now() const {
  return std::max(start_now_ + engine_.executed() + stall_accum_, floor_);
}

bool FastSession::syscall_allowed(u32 number) const {
  switch (static_cast<os::Sys>(number)) {
    // Time-independent, non-blocking, single-thread-preserving syscalls:
    // safe in both modes, and their side effects (output text, brk, rng
    // draws) land exactly where the classic run puts them.
    case os::Sys::kPrintInt:
    case os::Sys::kPrintChar:
    case os::Sys::kPrintStr:
    case os::Sys::kSbrk:
    case os::Sys::kRand:
      return true;
    // Relaxed-mode extras: exit ends the process; clock reads virtual time
    // (documented divergence — the campaign fast-forward path never allows
    // it, because its value could not match the cycle-accurate run).
    case os::Sys::kExit:
    case os::Sys::kClock:
      return config_.relaxed;
    default:
      return false;
  }
}

bool FastSession::resume_eligible(u32 number) const {
  // An excursion must run at exactly the classic commit cycle, so it needs
  // a schedule entry for this stream position.
  const std::map<u64, Cycle>* schedule = config_.syscall_schedule;
  if (schedule == nullptr || !schedule->contains(engine_.executed())) return false;
  // Crash recovery replays DDT SavePage history the fast prefix never
  // recorded, and re-randomization relocates segments under the block
  // cache's feet — both stay classic-only.
  if (static_cast<os::Sys>(number) == os::Sys::kCrash) return false;
  return guest_->config().rerandomize_interval == 0;
}

void FastSession::commit(engine::CommitInfo info) { report(virtual_now(), info); }

void FastSession::report(Cycle now, engine::CommitInfo info) const {
  const cpu::Core& core = machine_->core();
  info.thread = core.thread();
  core.commit_observer()(now, info);
}

cpu::OsClient::SyscallResult FastSession::commit_syscall(Cycle now) {
  // The engine stopped ON the syscall without executing it.  Commit it the
  // way the core does: the PC moves past the syscall at dispatch, the
  // observer sees the commit, then the OS handler runs against the
  // architectural registers.
  cpu::Core& core = machine_->core();
  const Addr pc = engine_.pc();
  engine_.set_pc(pc + 4);
  for (u8 r = 1; r < isa::kNumRegs; ++r) core.set_reg(r, engine_.reg(r));
  core.set_pc(engine_.pc());
  if (core.commit_observer()) {
    // No memory access: eff_addr and mem_value stay zero, as the core's.
    engine::CommitInfo info;
    info.pc = pc;
    info.instr = isa::decode(machine_->memory().read_u32(pc));
    report(now, info);
  }
  const cpu::OsClient::SyscallResult result = guest_->on_syscall(now);
  stall_accum_ += result.stall;
  engine_.credit_instruction();
  return result;
}

FastSession::Status FastSession::execute_syscall() {
  const cpu::OsClient::SyscallResult result = commit_syscall(virtual_now());
  const cpu::ThreadContext ctx = machine_->core().context();
  engine_.set_regs(ctx.regs);
  engine_.set_pc(ctx.pc);

  if (guest_->finished()) return Status::kExited;
  if (result.suspend) {
    // A whitelisted syscall never blocks a single-threaded guest; if one
    // suspends anyway, report it as what it is — a post-execution suspend,
    // not an un-executed syscall (the state is past the instruction).
    bail_ = BailReason::kSuspend;
    return Status::kBail;
  }
  return Status::kBoundary;
}

FastSession::Status FastSession::execute_syscall_excursion(u64 target) {
  cpu::Core& core = machine_->core();
  // resume_eligible() guarantees the entry.
  const Cycle when = config_.syscall_schedule->at(engine_.executed());
  // The classic run committed this syscall at cycle `when`, and every
  // handler decision may depend on that time (clock values, IO wake-ups,
  // scheduler quanta).  Warp to `when - 1` so that, if the handler
  // suspends, the first machine step in resume_from_suspension() lands on
  // `when` itself and replays the machine/framework/scheduler ticks of the
  // commit cycle — which the direct handler call below skips.
  machine_->warp_to(when - 1);

  const cpu::OsClient::SyscallResult result = commit_syscall(when);
  if (guest_->finished()) return Status::kExited;

  if (result.suspend) {
    // Classic commit would stop the core here (`running_ = false`, nothing
    // flushed); replicate that before handing control to the scheduler.
    core.suspend();
    if (engine_.executed() == target) {
      // The boundary sits inside the suspension, between this syscall's
      // commit and the scheduler's wake-up.  Stop without stepping: the
      // caller's transplant leaves the core suspended (set_context does not
      // resume), and the wake-up replays at its absolute classic cycle when
      // the caller steps the machine.
      const cpu::ThreadContext ctx = core.context();
      engine_.set_regs(ctx.regs);
      engine_.set_pc(ctx.pc);
      return Status::kBoundary;
    }
    return resume_from_suspension();
  }

  const cpu::ThreadContext ctx = core.context();
  engine_.set_regs(ctx.regs);
  engine_.set_pc(ctx.pc);
  if (guest_->live_thread_count() > 1) {
    // Quantum preemption becomes possible the moment a second thread is
    // live, and the fast engine cannot reproduce where it would land.
    bail_ = BailReason::kSuspend;
    return Status::kBail;
  }
  return Status::kBoundary;
}

FastSession::Status FastSession::resume_from_suspension() {
  cpu::Core& core = machine_->core();
  // Replay the suspension on the real scheduler: IO wake-ups and thread
  // switches use absolute cycle arithmetic, so stepping from the commit
  // cycle reproduces the classic run's wake-up exactly.
  const Cycle limit = guest_->config().run_limit;
  while (!guest_->finished() && !core.running() && machine_->now() < limit) guest_->step();
  if (guest_->finished()) return Status::kExited;
  if (!core.running()) {
    bail_ = BailReason::kSuspend;  // suspension unresolved within the run limit
    return Status::kBail;
  }
  floor_ = machine_->now();

  const cpu::ThreadContext ctx = core.context();
  engine_.set_regs(ctx.regs);
  engine_.set_pc(ctx.pc);
  if (guest_->live_thread_count() > 1) {
    // More than one live thread: the next preemption point depends on
    // cycle-accurate timing the fast engine does not model.
    bail_ = BailReason::kSuspend;
    return Status::kBail;
  }
  return Status::kBoundary;
}

FastSession::Status FastSession::run_until(u64 target_instructions) {
  bail_ = BailReason::kNone;
  // Report commits only when someone observes them.
  CommitSink* const sink = machine_->core().commit_observer() ? this : nullptr;
  while (engine_.executed() < target_instructions) {
    const FastEngine::Stop stop = engine_.run_until(target_instructions, sink);
    if (stop == FastEngine::Stop::kBoundary) break;
    if (stop == FastEngine::Stop::kIllegal) {
      bail_ = BailReason::kIllegal;
      return Status::kBail;
    }
    // Stopped ON a syscall.  Delegate if whitelisted, run it as an
    // excursion if resumable, otherwise bail with the PC still pointing at
    // it.
    const u32 number = engine_.reg(isa::kV0);
    Status status;
    if (syscall_allowed(number)) {
      status = execute_syscall();
    } else if (resume_eligible(number)) {
      status = execute_syscall_excursion(target_instructions);
    } else {
      bail_ = BailReason::kSyscall;
      return Status::kBail;
    }
    if (status != Status::kBoundary) return status;
  }
  return Status::kBoundary;
}

FastSession::Status FastSession::run_to_end() {
  const Status status = run_until(guest_->config().run_limit);
  if (status == Status::kBail) {
    // Outside fast mode's envelope (threads, network I/O, an illegal word):
    // hand the exact current state to the cycle-accurate core, which keeps
    // the same commit stream going.
    transplant(virtual_now());
    guest_->run();
  }
  return status;
}

void FastSession::transplant(Cycle target_cycle) {
  cpu::Core& core = machine_->core();
  cpu::ThreadContext ctx;
  ctx.regs = engine_.regs();
  ctx.pc = engine_.pc();
  core.set_context(ctx, core.thread());
  machine_->warp_to(target_cycle);
  if (machine_->cfc() != nullptr) machine_->cfc()->forget_thread(core.thread());
}

}  // namespace rse::exec
