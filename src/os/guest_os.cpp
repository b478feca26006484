#include "os/guest_os.hpp"

#include <algorithm>
#include <cassert>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "os/recovery.hpp"

namespace rse::os {

using cpu::OsClient;

GuestOs::GuestOs(Machine& machine, OsConfig config)
    : machine_(&machine),
      config_(config),
      rng_(config.seed),
      checkpoints_(config.max_checkpoint_bytes) {
  machine_->core().set_os(this);
  if (auto* cfc = machine_->cfc()) {
    cfc->set_violation_handler([this](ThreadId thread, Addr, Addr, Cycle) {
      // A broken control-flow stream is treated like a crash of that
      // thread: the DDT recovery (or the kill-all policy) contains it.
      inject_crash(thread);
    });
  }
  if (auto* ddt = machine_->ddt()) {
    ddt->set_save_page_handler(
        [this](u32 page, ThreadId writer, Cycle now) { return save_page(page, writer, now); });
    ddt->set_footprint_violation_handler(
        [this](Addr, u32, ThreadId thread, bool, Cycle) {
          // An access outside the static footprint means the thread is
          // operating on corrupted address data: treat it like a crash of
          // that thread so the DDT recovery (or kill-all) contains it.
          inject_crash(thread);
        });
  }
}

analysis::AnalysisOptions analysis_options(const OsConfig& config) {
  analysis::AnalysisOptions options;
  options.interprocedural_footprint = config.footprint_summaries;
  options.context_depth = config.context_depth;
  options.field_sensitive = config.field_sensitive;
  options.field_sp_depth = config.field_sp_depth;
  return options;
}

std::shared_ptr<const analysis::AnalysisResult> load_analysis(const isa::Program& program,
                                                              const OsConfig& config) {
  if (!config.static_cfc && !config.static_ddt) return nullptr;
  return std::make_shared<const analysis::AnalysisResult>(
      analysis::analyze(program, analysis_options(config)));
}

void GuestOs::load(const isa::Program& program,
                   std::shared_ptr<const analysis::AnalysisResult> analysis) {
  // Reset per-process state so the same machine can host successive loads.
  process_exited_ = false;
  exit_code_ = 0;
  output_.clear();
  checkpoints_.clear();
  recovery_reports_.clear();
  check_error_counts_.clear();
  run_slices_.clear();
  switching_to_.reset();
  pending_crash_.reset();
  got_addr_ = 0;
  plt_addr_ = 0;
  got_size_ = 0;
  plt_size_ = 0;
  ptr_slots_.clear();
  next_rerandomize_ = 0;
  rerandomize_pending_ = false;
  current_ = kNoThread;
  if (auto* fw = machine_->framework()) fw->reset();

  mem::MainMemory& memory = machine_->memory();
  for (std::size_t i = 0; i < program.text.size(); ++i) {
    memory.write_u32(program.text_base + static_cast<Addr>(i * 4), program.text[i]);
  }
  if (!program.data.empty()) {
    memory.write_block(program.data_base, program.data.data(), static_cast<u32>(program.data.size()));
  }

  stack_base_ = isa::kDefaultStackTop;
  heap_base_ = align_up(program.data_end(), mem::kPageBytes);
  shlib_base_ = isa::kDefaultShlibBase;

  if (config_.randomize_layout) {
    auto* mlr = machine_->mlr();
    if (mlr == nullptr) {
      throw ConfigError("randomize_layout requires the RSE framework (MLR module)");
    }
    // The loader's special library function hands the header to the MLR
    // module, which randomizes the position-independent bases.  The fixed
    // cost (paper: 56 cycles) is charged to the loader.
    const auto bases =
        mlr->randomize_bases(shlib_base_, stack_base_, heap_base_, machine_->now());
    shlib_base_ = bases.shlib_base;
    stack_base_ = bases.stack_base;
    heap_base_ = bases.heap_base;
    stats_.loader_cycles += modules::MlrModule::kPiRandFixedCost;
  }
  brk_ = heap_base_;

  // Static parse for the ICM: every instruction following an ICM CHECK gets
  // a redundant copy in CheckerMemory.
  if (auto* icm = machine_->icm()) {
    icm->clear_checker_memory();
    for (std::size_t i = 0; i + 1 < program.text.size(); ++i) {
      const isa::Instr instr = isa::decode(program.text[i]);
      if (instr.op == isa::Op::kChk && instr.chk_module == isa::ModuleId::kIcm) {
        const Addr checked_pc = program.text_base + static_cast<Addr>((i + 1) * 4);
        icm->register_checked_instruction(checked_pc, program.text[i + 1]);
      }
    }
  }

  // Main thread.
  threads_.clear();
  ready_.clear();
  Thread main_thread;
  main_thread.id = 0;
  main_thread.ctx.pc = program.entry;
  main_thread.stack_top = (stack_base_ - 64) & ~Addr{15};
  main_thread.ctx.regs[isa::kSp] = main_thread.stack_top;
  threads_.push_back(main_thread);

  machine_->core().set_text_range(program.text_base, program.text_end());
  analysis_ = analysis != nullptr && (config_.static_cfc || config_.static_ddt)
                  ? std::move(analysis)
                  : load_analysis(program, config_);
  if (auto* cfc = machine_->cfc()) {
    cfc->set_text_range(program.text_base, program.text_end());
    // Stale tables from a previous load must not constrain this program.
    cfc->set_successor_table(analysis_ != nullptr && config_.static_cfc
                                 ? analysis_->indirect
                                 : modules::CfcSuccessorTable{});
  }
  install_ddt_footprint(program);
  register_stack_footprint(threads_[0]);
  machine_->core().set_context(main_thread.ctx, 0);
  machine_->core().resume();
  threads_[0].state = ThreadState::kRunning;
  current_ = 0;
  quantum_start_ = machine_->now();
  note_slice_start(machine_->now());
}

void GuestOs::enable_module(isa::ModuleId id) {
  if (auto* fw = machine_->framework()) {
    if (auto* m = fw->module(id)) m->set_enabled(true);
  }
}

bool GuestOs::finished() const {
  if (process_exited_) return true;
  for (const Thread& t : threads_) {
    if (t.state != ThreadState::kTerminated && t.state != ThreadState::kKilled) return false;
  }
  return !threads_.empty();
}

void GuestOs::step() {
  machine_->step();
  scheduler_tick(machine_->now());
}

bool GuestOs::run_until(Cycle cycle) {
  const Cycle stop = std::min(cycle, config_.run_limit);
  while (!finished() && machine_->now() < stop) step();
  return !finished() && machine_->now() < config_.run_limit;
}

void GuestOs::run() { run_until(config_.run_limit); }

ThreadState GuestOs::thread_state(ThreadId tid) const {
  return tid < threads_.size() ? threads_[tid].state : ThreadState::kKilled;
}

u32 GuestOs::live_thread_count() const {
  u32 count = 0;
  for (const Thread& t : threads_) {
    if (t.state != ThreadState::kTerminated && t.state != ThreadState::kKilled) ++count;
  }
  return count;
}

// -------------------------------------------------------------- scheduling

void GuestOs::make_ready(ThreadId tid) {
  Thread& t = threads_[tid];
  t.state = ThreadState::kReady;
  ready_.push_back(tid);
}

std::optional<ThreadId> GuestOs::pick_next() {
  while (!ready_.empty()) {
    const ThreadId tid = ready_.front();
    ready_.pop_front();
    if (threads_[tid].state == ThreadState::kReady) return tid;
  }
  return std::nullopt;
}

void GuestOs::begin_switch(ThreadId next, Cycle now) {
  switching_to_ = next;
  switch_done_at_ = now + config_.context_switch_cost;
  ++stats_.context_switches;
}

void GuestOs::scheduler_tick(Cycle now) {
  if (process_exited_) return;
  cpu::Core& core = machine_->core();

  // Wake threads whose I/O completed.
  for (Thread& t : threads_) {
    if (t.state == ThreadState::kBlockedIo && t.wake_at <= now) make_ready(t.id);
  }
  // Hand arrived requests to accept-blocked threads (one per arrival).
  for (Thread& t : threads_) {
    if (t.state != ThreadState::kBlockedAccept) continue;
    if (auto request = network_.accept(now)) {
      t.ctx.regs[isa::kV0] = *request;
      make_ready(t.id);
    } else if (network_.exhausted()) {
      t.ctx.regs[isa::kV0] = static_cast<Word>(-1);
      make_ready(t.id);
    } else {
      break;  // next arrival is in the future
    }
  }

  // Runtime re-randomization due: stop the process at the next drain point.
  if (config_.rerandomize_interval > 0 && got_addr_ != 0 && !rerandomize_pending_ &&
      next_rerandomize_ != 0 && now >= next_rerandomize_) {
    rerandomize_pending_ = true;
    if (core.running()) core.request_drain();
  }

  // Preemption: quantum expired and someone else is ready.
  if (core.running() && current_ != kNoThread && !ready_.empty() &&
      now - quantum_start_ >= config_.quantum) {
    core.request_drain();
    ++stats_.preemptions;
  }

  if (core.running()) return;

  // Phase B of a context switch: the switch cost elapsed, install the thread.
  if (switching_to_) {
    if (now < switch_done_at_) return;
    const ThreadId next = *switching_to_;
    switching_to_.reset();
    Thread& t = threads_[next];
    if (t.state != ThreadState::kReady) {
      // Killed while switching in (recovery); pick someone else next tick.
      current_ = kNoThread;
      return;
    }
    t.state = ThreadState::kRunning;
    current_ = next;
    quantum_start_ = now;
    note_slice_start(now);
    core.set_context(t.ctx, next);
    core.resume();
    return;
  }

  if (!core.drained()) return;  // still draining after request_drain

  if (pending_crash_) {
    const ThreadId victim = *pending_crash_;
    pending_crash_.reset();
    if (current_ == victim) {
      threads_[victim].ctx = core.context();
      note_slice_end(now);
      current_ = kNoThread;
    }
    handle_crash(victim, now);
    if (process_exited_) return;
  }

  // The core stopped: park the outgoing thread.
  if (current_ != kNoThread) {
    note_slice_end(now);
    Thread& t = threads_[current_];
    if (t.state == ThreadState::kRunning) {
      // Preempted (blocked/terminated threads already changed state and had
      // their context saved in the syscall handler).
      t.ctx = core.context();
      if (rerandomize_pending_) {
        // The interrupted thread resumes first once the relocation is done.
        t.state = ThreadState::kReady;
        ready_.push_front(current_);
      } else {
        make_ready(current_);
      }
    }
    current_ = kNoThread;
  }

  if (rerandomize_pending_) {
    // "Periodically, the process is stopped for re-randomization" (§4.1):
    // the whole process stays suspended while the MLR relocates the GOT and
    // the routine patches the PLT and the recorded pointer slots.
    rerandomize_pending_ = false;
    const Cycle cost = rerandomize_now(now);
    ++stats_.rerandomizations;
    stats_.rerandomize_cycles += cost;
    next_rerandomize_ = now + config_.rerandomize_interval;
    if (auto next = pick_next()) {
      switching_to_ = next;
      switch_done_at_ = now + cost + config_.context_switch_cost;
      ++stats_.context_switches;
    }
    return;
  }

  if (auto next = pick_next()) {
    begin_switch(*next, now);
  }
}

// ---------------------------------------------------------------- syscalls

void GuestOs::block_current(ThreadState state) {
  assert(current_ != kNoThread);
  Thread& t = threads_[current_];
  t.ctx = machine_->core().context();
  t.state = state;
}

void GuestOs::finish_process(int code) {
  process_exited_ = true;
  exit_code_ = code;
}

void GuestOs::note_slice_start(Cycle now) {
  if (record_slices_) slice_started_ = now;
}

void GuestOs::note_slice_end(Cycle now) {
  if (record_slices_ && current_ != kNoThread && now > slice_started_) {
    run_slices_.push_back(RunSlice{.thread = current_, .from = slice_started_, .to = now});
  }
}

void GuestOs::wake_joiners(ThreadId dead) {
  for (Thread& t : threads_) {
    if (t.state == ThreadState::kBlockedJoin && t.join_target == dead) {
      t.join_target = kNoThread;
      make_ready(t.id);
    }
  }
}

OsClient::SyscallResult GuestOs::on_syscall(Cycle now) {
  ++stats_.syscalls;
  cpu::Core& core = machine_->core();
  const auto number = static_cast<Sys>(core.reg(isa::kV0));
  const Word a0 = core.reg(isa::kA0);
  const Word a1 = core.reg(isa::kA1);
  const Cycle cost = config_.syscall_cost;

  switch (number) {
    case Sys::kExit:
      block_current(ThreadState::kTerminated);
      wake_joiners(current_);
      finish_process(static_cast<int>(a0));
      return {cost, true};
    case Sys::kPrintInt:
      output_ += std::to_string(static_cast<i32>(a0));
      return {cost, false};
    case Sys::kPrintChar:
      output_ += static_cast<char>(a0);
      return {cost, false};
    case Sys::kPrintStr: {
      Addr p = a0;
      for (int i = 0; i < 4096; ++i) {
        const char c = static_cast<char>(machine_->memory().read_u8(p++));
        if (c == '\0') break;
        output_ += c;
      }
      return {cost, false};
    }
    case Sys::kClock:
      core.set_reg(isa::kV0, static_cast<Word>(now));
      return {cost, false};
    case Sys::kSbrk: {
      const Addr old = brk_;
      brk_ = align_up(brk_ + a0, 16);
      core.set_reg(isa::kV0, old);
      return {cost, false};
    }
    case Sys::kRand:
      core.set_reg(isa::kV0, static_cast<Word>(rng_.next()));
      return {cost, false};
    case Sys::kThreadCreate: {
      if (threads_.size() >= config_.max_threads) {
        core.set_reg(isa::kV0, static_cast<Word>(-1));
        return {cost, false};
      }
      Thread t;
      t.id = static_cast<ThreadId>(threads_.size());
      t.ctx.pc = a0;
      t.ctx.regs[isa::kA0] = a1;
      t.stack_top =
          (stack_base_ - 64 - t.id * config_.thread_stack_bytes) & ~Addr{15};
      t.ctx.regs[isa::kSp] = t.stack_top;
      threads_.push_back(t);
      register_stack_footprint(threads_.back());
      make_ready(t.id);
      core.set_reg(isa::kV0, t.id);
      return {cost, false};
    }
    case Sys::kThreadExit:
      block_current(ThreadState::kTerminated);
      wake_joiners(current_);
      return {cost, true};
    case Sys::kYield:
      block_current(ThreadState::kReady);
      ready_.push_back(current_);
      return {cost, true};
    case Sys::kJoin: {
      const ThreadId target = a0;
      if (target >= threads_.size() || threads_[target].state == ThreadState::kTerminated ||
          threads_[target].state == ThreadState::kKilled) {
        core.set_reg(isa::kV0, 0);
        return {cost, false};
      }
      block_current(ThreadState::kBlockedJoin);
      threads_[current_].join_target = target;
      return {cost, true};
    }
    case Sys::kNetAccept: {
      if (auto request = network_.accept(now)) {
        core.set_reg(isa::kV0, *request);
        return {cost, false};
      }
      if (network_.exhausted()) {
        core.set_reg(isa::kV0, static_cast<Word>(-1));
        return {cost, false};
      }
      block_current(ThreadState::kBlockedAccept);
      return {cost, true};
    }
    case Sys::kNetIo: {
      block_current(ThreadState::kBlockedIo);
      threads_[current_].wake_at = now + network_.io_latency();
      return {cost, true};
    }
    case Sys::kNetReply:
      network_.complete(a0, now);
      core.set_reg(isa::kV0, 0);
      return {cost, false};
    case Sys::kCrash:
      handle_crash(current_, now);
      return {cost, true};
    case Sys::kRegisterGot: {
      got_addr_ = a0;
      plt_addr_ = a1;
      got_size_ = core.reg(isa::kA2);
      plt_size_ = got_size_;  // one-word PLT entries, one per GOT entry
      if (config_.rerandomize_interval > 0) {
        next_rerandomize_ = now + config_.rerandomize_interval;
      }
      core.set_reg(isa::kV0, 0);
      return {cost, false};
    }
    case Sys::kRegisterPtrTable: {
      const Word count = a1;
      for (Word i = 0; i < count && i < 1024; ++i) {
        ptr_slots_.push_back(machine_->memory().read_u32(a0 + i * 4));
      }
      core.set_reg(isa::kV0, 0);
      return {cost, false};
    }
  }
  throw GuestError("unknown syscall " + std::to_string(core.reg(isa::kV0)));
}

bool GuestOs::on_check_error(Cycle now, Addr pc, isa::ModuleId module) {
  ++stats_.check_errors_by_module[static_cast<unsigned>(module)];
  u32& count = check_error_counts_[pc];
  ++count;
  if (count <= config_.check_error_retries) {
    ++stats_.check_error_retries;
    return true;  // flush + refetch: a transient fault clears on retry
  }
  // Persistent error: contain it by treating the thread as crashed.
  ++stats_.check_error_aborts;
  handle_crash(current_, now);
  return false;
}

void GuestOs::on_illegal(Cycle now, Addr) {
  // An illegal instruction is a thread crash (e.g. a foiled attack after
  // MLR randomization landing in garbage).
  ++stats_.illegal_traps;
  handle_crash(current_, now);
}

// ---------------------------------------------------------------- recovery

Cycle GuestOs::save_page(u32 page, ThreadId writer, Cycle now) {
  // The OS exception handler checkpoints the page; the process is suspended
  // for the duration of the copy (one bus transfer of a full page).
  checkpoints_.add(page, writer, now, machine_->memory().snapshot_page(page));
  ++stats_.pages_saved;
  return machine_->bus().timing().transfer_cycles(mem::kPageBytes);
}

void GuestOs::install_ddt_footprint(const isa::Program& program) {
  (void)program;
  auto* ddt = machine_->ddt();
  if (ddt == nullptr) return;
  modules::DdtFootprint fp;
  if (config_.static_ddt && analysis_ != nullptr) {
    const analysis::PageFootprint& pf = analysis_->footprint;
    fp.checked_pcs = pf.checked_pcs();
    fp.pages = pf.pages;
    fp.store_pages = pf.store_pages;
    // gp-relative sites resolve against the initial global pointer, which
    // is 0 in a fresh context: the offsets are absolute addresses.
    if (pf.has_gp_range && pf.gp_hi >= 0) {
      std::vector<u32> gp_pages;
      const Addr lo = static_cast<Addr>(std::max<i64>(pf.gp_lo, 0));
      for (u32 page = mem::page_of(lo); page <= mem::page_of(static_cast<Addr>(pf.gp_hi));
           ++page) {
        gp_pages.push_back(page);
      }
      fp.pages.insert(fp.pages.end(), gp_pages.begin(), gp_pages.end());
    }
    // Per-site page tables from the context-sensitive pass (empty at depth
    // 0).  The analyzer already resolved gp-relative components at gp = 0,
    // matching the loader convention above, so the pages install verbatim.
    fp.pc_pages.reserve(pf.context_pages.size());
    for (const analysis::PageFootprint::SitePages& site : pf.context_pages) {
      modules::DdtFootprint::SitePages entry;
      entry.pc = site.pc;
      entry.pages = site.pages;
      fp.pc_pages.push_back(std::move(entry));
    }
  }
  // Installing an empty table clears any stale footprint from a previous
  // load; set_footprint_table sorts and dedups internally.
  ddt->set_footprint_table(std::move(fp));
}

void GuestOs::register_stack_footprint(const Thread& thread) {
  auto* ddt = machine_->ddt();
  if (ddt == nullptr || !ddt->has_footprint() || analysis_ == nullptr) return;
  const analysis::PageFootprint& pf = analysis_->footprint;
  if (!pf.has_sp_range) return;
  // The sp envelope is the hull of every resolved sp-relative site, as an
  // offset from the thread's initial stack pointer: whitelist exactly the
  // pages those sites can touch on this thread's stack.  The offsets are
  // i64 and may be negative; resolve in i64 and clamp to the 32-bit
  // address space instead of letting the u32 addition wrap (a wrapped lo
  // above hi would whitelist nothing — or, worse, the wrong pages).
  const i64 lo64 = std::clamp<i64>(
      static_cast<i64>(thread.stack_top) + pf.sp_lo, 0, 0xFFFFFFFFll);
  const i64 hi64 = std::clamp<i64>(
      static_cast<i64>(thread.stack_top) + pf.sp_hi, 0, 0xFFFFFFFFll);
  if (hi64 < lo64) return;
  const Addr lo = static_cast<Addr>(lo64);
  const Addr hi = static_cast<Addr>(hi64);
  std::vector<u32> pages;
  for (u32 page = mem::page_of(lo); page <= mem::page_of(hi); ++page) {
    pages.push_back(page);
  }
  ddt->add_footprint_pages(pages);
}

Cycle GuestOs::rerandomize_now(Cycle now) {
  auto* mlr = machine_->mlr();
  mem::MainMemory& memory = machine_->memory();
  // Allocate the new GOT location in the (kernel-side) heap with a random
  // 16-byte-aligned offset so successive locations are unpredictable.
  const Addr new_got =
      align_up(brk_ + static_cast<Addr>(rng_.next_below(64 * 1024)), 16);
  brk_ = new_got + got_size_;

  u32 rewritten = 0;
  if (mlr != nullptr) {
    rewritten = mlr->relocate_got(memory, got_addr_, new_got, got_size_, plt_addr_, plt_size_);
  } else {
    // Software fallback (TRR-style) when no RSE is present.
    std::vector<u8> got(got_size_);
    memory.read_block(got_addr_, got.data(), got_size_);
    memory.write_block(new_got, got.data(), got_size_);
    for (u32 i = 0; i < plt_size_ / 4; ++i) {
      const Word p = memory.read_u32(plt_addr_ + i * 4);
      if (p >= got_addr_ && p < got_addr_ + got_size_) {
        memory.write_u32(plt_addr_ + i * 4, new_got + (p - got_addr_));
        ++rewritten;
      }
    }
  }
  // Apply the new offset to every compiler-recorded pointer slot that holds
  // a pointer into the old GOT (the "special data section" of §4.1).
  u32 slots_fixed = 0;
  for (const Addr slot : ptr_slots_) {
    const Word p = memory.read_u32(slot);
    if (p >= got_addr_ && p < got_addr_ + got_size_) {
      memory.write_u32(slot, new_got + (p - got_addr_));
      ++slots_fixed;
    }
  }
  got_addr_ = new_got;

  // Process-stop time: GOT read+write and PLT read+write over the bus, plus
  // the 4-adders-wide rewrite and one pass over the pointer slots.
  const mem::BusTiming& timing = machine_->bus().timing();
  Cycle cost = 2 * timing.transfer_cycles(got_size_) + 2 * timing.transfer_cycles(plt_size_) +
               (rewritten + 3) / 4 + slots_fixed + modules::MlrModule::kPiRandFixedCost;
  (void)now;
  return cost;
}

void GuestOs::inject_crash(ThreadId tid) {
  if (tid >= threads_.size()) return;
  if (tid == current_ && machine_->core().running()) {
    // Crash the running thread at the next drain point (the pipeline must
    // not hold in-flight state for a context we are about to discard).
    machine_->core().request_drain();
    pending_crash_ = tid;
    return;
  }
  handle_crash(tid, machine_->now());
}

void GuestOs::handle_crash(ThreadId tid, Cycle now) {
  ++stats_.crashes;
  auto* ddt = machine_->ddt();
  const bool ddt_live = ddt != nullptr && ddt->enabled();
  if (!ddt_live) {
    // Without dependency information there is no guarantee shared data is
    // consistent: the kill-all policy terminates the entire thread pool.
    for (Thread& t : threads_) {
      if (t.state != ThreadState::kTerminated) t.state = ThreadState::kKilled;
    }
    ready_.clear();
    if (machine_->core().running()) machine_->core().halt(machine_->now());
    note_slice_end(machine_->now());
    current_ = kNoThread;
    finish_process(139);
    return;
  }
  const RecoveryReport report = recover(tid, now);
  recovery_reports_.push_back(report);
  if (report.total_loss || live_thread_count() == 0) finish_process(139);
}

RecoveryReport GuestOs::recover(ThreadId faulty, Cycle now) {
  (void)now;
  ++stats_.recoveries;
  auto* ddt = machine_->ddt();
  const RecoveryPlan plan = run_recovery(*ddt, checkpoints_, machine_->memory(), faulty);
  RecoveryReport report;
  report.faulty = plan.faulty;
  report.killed = plan.killed;
  report.pages_restored = plan.pages_restored;
  report.total_loss = plan.total_loss;

  auto is_killed = [&report](ThreadId t) {
    return std::find(report.killed.begin(), report.killed.end(), t) != report.killed.end();
  };

  if (report.total_loss) {
    for (Thread& t : threads_) {
      if (t.state != ThreadState::kTerminated) t.state = ThreadState::kKilled;
    }
    ready_.clear();
    return report;
  }

  // Terminate the dependent closure.
  for (ThreadId victim : report.killed) {
    if (victim >= threads_.size()) continue;
    Thread& t = threads_[victim];
    if (t.state == ThreadState::kTerminated) continue;
    t.state = ThreadState::kKilled;
    wake_joiners(victim);
  }
  ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                              [this](ThreadId t) {
                                return threads_[t].state != ThreadState::kReady;
                              }),
               ready_.end());
  if (current_ != kNoThread && is_killed(current_)) {
    // The running thread is in the kill set (it crashed itself, or it
    // depends on the faulty one).  Discard its in-flight state; the
    // scheduler picks a survivor.
    note_slice_end(machine_->now());
    machine_->core().halt(machine_->now());
    current_ = kNoThread;
  }

  for (const Thread& t : threads_) {
    if (t.state != ThreadState::kTerminated && t.state != ThreadState::kKilled) {
      report.survivors.push_back(t.id);
    }
  }

  ddt->forget_threads(report.killed);
  checkpoints_.clear();
  return report;
}

}  // namespace rse::os
