#include "exec/fast_session.hpp"

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

void FastSession::commit(engine::CommitInfo info) { report(virtual_now(), info); }

void FastSession::report(Cycle now, engine::CommitInfo info) const {
  const cpu::Core& core = machine_->core();
  info.thread = core.thread();
  core.commit_observer()(now, info);
}

FastSession::Status FastSession::execute_syscall() {
  // The engine stopped ON the syscall without executing it.  Commit it the
  // way the core does: the PC moves past the syscall at dispatch, the
  // observer sees the commit, then the OS handler runs against the
  // architectural registers.  No whitelisted syscall suspends, and exit
  // finishes the process, so the guest either continues or is done.
  cpu::Core& core = machine_->core();
  const Cycle now = virtual_now();
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
  stall_accum_ += guest_->on_syscall(now).stall;
  engine_.credit_instruction();

  const cpu::ThreadContext ctx = core.context();
  engine_.set_regs(ctx.regs);
  engine_.set_pc(ctx.pc);
  return guest_->finished() ? Status::kExited : Status::kBoundary;
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
    // Stopped ON a syscall.  Delegate it if whitelisted, otherwise bail
    // with the PC still pointing at it.
    if (!syscall_allowed(engine_.reg(isa::kV0))) {
      bail_ = BailReason::kSyscall;
      return Status::kBail;
    }
    if (execute_syscall() == Status::kExited) return Status::kExited;
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
