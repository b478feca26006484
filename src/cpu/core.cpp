#include "cpu/core.hpp"

#include <cassert>

#include "isa/semantics.hpp"

namespace rse::cpu {

using isa::Instr;
using isa::Op;
using isa::OpClass;

namespace {

/// The bytes one load or store touches: its aligned word and a mask of the
/// word's bytes (bit i = byte `word + i`).  Accesses are naturally aligned
/// (isa::effective_address), so two of them can overlap only inside one
/// word.  Comparing words never forms `addr + size`, which wraps to 0 at the
/// top of the address space.
struct WordBytes {
  Addr word;
  u32 mask;
};

WordBytes word_bytes(Addr addr, u32 size) {
  return {addr & ~3u, ((1u << size) - 1u) << (addr & 3u)};
}

/// The bytes two accesses share, as a mask within their word (0: disjoint).
u32 shared_bytes(const WordBytes& a, const WordBytes& b) {
  return a.word == b.word ? a.mask & b.mask : 0;
}

/// A byte mask widened to the bits of those bytes.
Word byte_bits(u32 mask) {
  return (mask & 1 ? 0x0000'00FFu : 0) | (mask & 2 ? 0x0000'FF00u : 0) |
         (mask & 4 ? 0x00FF'0000u : 0) | (mask & 8 ? 0xFF00'0000u : 0);
}

}  // namespace

Core::Core(const CoreConfig& config, mem::MainMemory& memory, mem::Cache& il1, mem::Cache& dl1)
    : config_(config),
      memory_(&memory),
      il1_(&il1),
      dl1_(&dl1),
      predictor_(config.predictor),
      fetch_buffer_(config.fetch_buffer_size),
      ruu_(config.ruu_size) {
  reg_producer_seq_.fill(0);
}

void Core::set_context(const ThreadContext& context, ThreadId thread) {
  assert(ruu_count_ == 0 && "context switch requires a drained pipeline");
  regs_ = context.regs;
  regs_[0] = 0;
  pc_ = context.pc;
  thread_ = thread;
  fetch_pc_ = context.pc;
  fetch_buffer_.clear();
  wrong_path_mode_ = false;
  serialize_active_ = false;
  draining_ = false;
  reg_producer_seq_.fill(0);
}

ThreadContext Core::context() const {
  ThreadContext ctx;
  ctx.regs = regs_;
  ctx.pc = pc_;
  return ctx;
}

void Core::halt(Cycle now) {
  flush_all(now, pc_);
  running_ = false;
  draining_ = false;
}

std::vector<std::pair<Addr, u32>> Core::inflight_ranges() const {
  std::vector<std::pair<Addr, u32>> ranges;
  ranges.reserve(fetch_buffer_.size() + ruu_count_);
  for (std::size_t i = 0; i < fetch_buffer_.size(); ++i) {
    ranges.emplace_back(fetch_buffer_.at(i).pc, 4u);
  }
  for (u32 offset = 0; offset < ruu_count_; ++offset) {
    const RuuEntry& entry = ruu_[ruu_index(offset)];
    if (!entry.valid) continue;
    ranges.emplace_back(entry.pc, 4u);
    if (entry.is_store && !entry.wrong_path && entry.mem_size != 0) {
      ranges.emplace_back(entry.eff_addr, static_cast<u32>(entry.mem_size));
    }
  }
  return ranges;
}

void Core::cycle(Cycle now) {
  if (!running_) return;
  ++stats_.run_cycles;
  stage_commit(now);
  if (!running_) return;  // a trap/syscall suspended the core mid-cycle
  stage_writeback(now);
  stage_issue(now);
  stage_dispatch(now);
  stage_fetch(now);
  if (draining_ && ruu_count_ == 0) {
    draining_ = false;
    running_ = false;
  }
}

// ---------------------------------------------------------------- functional

Word Core::read_mem_through_stores(Addr addr, u32 size, u32 upto_offset) const {
  // One youngest-first pass over the in-flight (dispatched, uncommitted)
  // stores older than the load at RUU offset `upto_offset`.  Each store
  // supplies the load's bytes that no younger store has supplied; memory
  // supplies the bytes no store covers.  `word` holds them in place.
  const WordBytes load = word_bytes(addr, size);
  u32 filled = 0;
  Word word = 0;
  u32 index = ruu_index(upto_offset);
  for (u32 off = upto_offset; off > 0 && filled != load.mask; --off) {
    index = index == 0 ? config_.ruu_size - 1 : index - 1;
    const RuuEntry& e = ruu_[index];
    if (!e.valid || !e.is_store || e.wrong_path) continue;
    const u32 fresh = shared_bytes(load, word_bytes(e.eff_addr, e.mem_size)) & ~filled;
    word |= (e.mem_value << (8 * (e.eff_addr & 3u))) & byte_bits(fresh);
    filled |= fresh;
  }
  if (filled != load.mask) word |= memory_->read_u32(load.word) & ~byte_bits(filled);
  return (word >> (8 * (addr & 3u))) & byte_bits((1u << size) - 1u);
}

void Core::exec_functional(RuuEntry& e, const FetchedInstr& f) {
  // isa::execute's view of the core at dispatch: register writes keep an
  // undo record for CHECK-error flushes, loads read through the older
  // in-flight stores, and stores only fill the RUU entry (memory is written
  // at commit).
  struct Adapter {
    Core& core;
    RuuEntry& e;
    Word reg(u8 r) const { return core.regs_[r]; }
    void write(u8 r, Word value) {
      e.has_dest = true;
      e.dest_reg = r;
      e.old_dest_value = core.regs_[r];
      core.regs_[r] = value;
      e.result = value;
    }
    Word load(Addr ea, u32 size) {
      e.eff_addr = ea;
      e.mem_size = static_cast<u8>(size);
      e.is_mem = true;
      return core.read_mem_through_stores(ea, size, core.ruu_count_);
    }
    void loaded(Word value) { e.mem_value = value; }
    void store(Addr ea, u32 size, Word value) {
      e.eff_addr = ea;
      e.mem_size = static_cast<u8>(size);
      e.mem_value = value;
      e.is_mem = true;
      e.is_store = true;
    }
    void chk() {}  // a CHK's work happens at commit
  };

  Adapter adapter{*this, e};
  const isa::Step step = isa::execute(e.instr, e.pc, adapter);
  e.taken = step.taken;
  Addr next_pc = step.next;
  if (branch_fault_ && e.instr.is_control()) next_pc = branch_fault_(e.pc, next_pc);
  e.recover_pc = next_pc;
  e.mispredicted = next_pc != f.predicted_next;
  pc_ = next_pc;
  regs_[0] = 0;
  // Syscalls/traps have their architectural effect at commit, not here; every
  // other instruction (CHK included) has now executed functionally, advancing
  // the position the fast-forward controller aligns against.
  if (step.trap == isa::Trap::kNone) ++functional_pos_;
}

// ------------------------------------------------------------------- commit

void Core::stage_commit(Cycle now) {
  if (now < commit_stall_until_) return;
  u32 committed = 0;
  while (committed < config_.commit_width && ruu_count_ > 0) {
    RuuEntry& e = ruu_[ruu_head_];
    assert(e.valid);
    if (!e.completed) break;
    assert(!e.wrong_path && "wrong-path instruction reached commit");

    if (fw_) {
      const engine::Ioq::CheckBits bits = fw_->check_bits(ruu_head_);
      const bool is_chk = e.instr.op == Op::kChk;
      if (is_chk && e.instr.chk_blocking && !bits.check_valid) {
        ++stats_.chk_commit_stall_cycles;
        break;  // blocking CHECK still executing in its module
      }
      if (bits.check_valid && bits.check) {
        // A module detected an error (Table 1 row 4): flush and retry from
        // the CHECK, or hand the thread to the OS.
        ++stats_.check_error_flushes;
        fw_->on_check_error(ruu_head_, now);
        const Addr fault_pc = e.pc;
        const isa::ModuleId module =
            is_chk ? e.instr.chk_module : isa::ModuleId::kFramework;
        const bool retry = os_ ? os_->on_check_error(now, fault_pc, module) : true;
        flush_all(now, fault_pc);
        if (!retry) running_ = false;
        return;
      }
    }

    // Syscalls and invalid words have no memory access: their eff_addr and
    // mem_value are still the zeros dispatch cleared them to.
    const engine::CommitInfo ci{engine::InstrTag{.slot = ruu_head_, .seq = e.seq}, e.pc, e.instr,
                                thread_, e.eff_addr, e.mem_value};
    if (commit_observer_) commit_observer_(now, ci);
    const OpClass cls = e.instr.op_class();
    if (cls == OpClass::kSyscall || e.instr.op == Op::kInvalid) {
      serialize_active_ = false;
      const bool is_invalid = e.instr.op == Op::kInvalid;
      if (fw_) fw_->on_commit(ci, now);
      // Free the entry before invoking the OS so the handler sees a drained
      // pipeline (it may switch contexts).
      free_head_entry(e);
      ++committed;
      ++functional_pos_;  // syscalls/traps take architectural effect here
      if (is_invalid) {
        if (os_) os_->on_illegal(now, ci.pc);
        running_ = false;
        return;
      }
      ++stats_.syscalls;
      ++stats_.instructions;
      if (os_) {
        const OsClient::SyscallResult r = os_->on_syscall(now);
        if (r.stall > 0) commit_stall_until_ = now + r.stall;
        if (r.suspend) {
          running_ = false;
          return;
        }
        if (r.stall > 0) return;
      }
      continue;
    }

    Cycle module_stall = 0;
    if (fw_) module_stall = fw_->on_commit(ci, now);

    switch (cls) {
      case OpClass::kStore:
        // The store value reaches memory only now (after the framework saw
        // the commit — the DDT's SavePage snapshot happens pre-store).
        switch (e.mem_size) {
          case 1: memory_->write_u8(e.eff_addr, static_cast<u8>(e.mem_value)); break;
          case 2: memory_->write_u16(e.eff_addr, static_cast<u16>(e.mem_value)); break;
          default: memory_->write_u32(e.eff_addr, e.mem_value); break;
        }
        dl1_->access(now, e.eff_addr, e.mem_size, /*write=*/true);
        ++stats_.stores;
        --lsq_count_;
        break;
      case OpClass::kLoad:
        ++stats_.loads;
        --lsq_count_;
        break;
      case OpClass::kBranch:
        ++stats_.branches;
        if (e.mispredicted) ++stats_.mispredicts;
        predictor_.update_cond(e.pc, e.taken, e.mispredicted);
        break;
      case OpClass::kJump:
        if (e.instr.op == Op::kJr || e.instr.op == Op::kJalr) {
          if (e.mispredicted) ++stats_.mispredicts;
          predictor_.update_indirect(e.pc, e.recover_pc, e.mispredicted);
        }
        break;
      default:
        break;
    }

    if (e.instr.op == Op::kChk) {
      ++stats_.chk_committed;
      serialize_active_ = false;  // release a serializing blocking CHECK
    } else {
      ++stats_.instructions;
    }

    free_head_entry(e);
    ++committed;
    if (module_stall > 0) {
      commit_stall_until_ = now + module_stall;
      stats_.module_stall_cycles += module_stall;
      break;
    }
  }
}

void Core::free_head_entry(RuuEntry& e) {
  if (e.has_dest && reg_producer_seq_[e.dest_reg] == e.seq) {
    reg_producer_seq_[e.dest_reg] = 0;
  }
  e.valid = false;
  ruu_head_ = ruu_index(1);
  --ruu_count_;
}

// ---------------------------------------------------------------- writeback

void Core::stage_writeback(Cycle now) {
  for (u32 off = 0; off < ruu_count_; ++off) {
    RuuEntry& e = ruu_at(off);
    if (!e.issued || e.completed || e.complete_at > now) continue;
    e.completed = true;
    if (fw_ && !e.wrong_path) {
      engine::ExecuteInfo xi{engine::InstrTag{.slot = ruu_index(off), .seq = e.seq}, e.result,
                             e.eff_addr, e.is_mem};
      fw_->on_execute(xi, now);
    }
    if (e.mispredicted && !e.wrong_path && e.instr.is_control()) {
      // Branch resolution: squash the wrong path and redirect fetch.
      squash_younger_than(off, now);
      fetch_buffer_.clear();
      fetch_pc_ = e.recover_pc;
      fetch_ready_at_ = now + 1;
      wrong_path_mode_ = false;
      break;  // RUU shape changed; re-scan next cycle
    }
  }
}

void Core::squash_younger_than(u32 offset, Cycle now) {
  while (ruu_count_ > offset + 1) {
    const u32 victim_index = ruu_index(ruu_count_ - 1);
    RuuEntry& v = ruu_[victim_index];
    assert(v.valid);
    if (fw_) fw_->on_squash(engine::InstrTag{.slot = victim_index, .seq = v.seq}, now);
    if (v.is_mem && !v.wrong_path) --lsq_count_;
    v.valid = false;
    --ruu_count_;
    ++stats_.squashed;
  }
  recompute_producers();
}

void Core::flush_all(Cycle now, Addr refetch_pc) {
  // Undo functional register effects youngest-first (stores were never
  // applied; they die with their RUU entries).
  for (u32 off = ruu_count_; off-- > 0;) {
    const u32 index = ruu_index(off);
    RuuEntry& e = ruu_[index];
    if (!e.wrong_path && e.has_dest) regs_[e.dest_reg] = e.old_dest_value;
    // Correct-path entries (except syscalls/traps, which never execute at
    // dispatch) were counted by exec_functional; they will re-execute after
    // the refetch, so un-count them.
    if (!e.wrong_path && e.instr.op != Op::kSyscall && e.instr.op != Op::kInvalid) {
      --functional_pos_;
    }
    if (fw_) fw_->on_squash(engine::InstrTag{.slot = index, .seq = e.seq}, now);
    e.valid = false;
    ++stats_.squashed;
  }
  ruu_count_ = 0;
  lsq_count_ = 0;
  pc_ = refetch_pc;
  fetch_pc_ = refetch_pc;
  fetch_ready_at_ = now + 1;
  fetch_buffer_.clear();
  wrong_path_mode_ = false;
  serialize_active_ = false;
  reg_producer_seq_.fill(0);
  regs_[0] = 0;
}

void Core::recompute_producers() {
  reg_producer_seq_.fill(0);
  for (u32 off = 0; off < ruu_count_; ++off) {
    const u32 index = ruu_index(off);
    const RuuEntry& e = ruu_[index];
    if (const auto dest = e.instr.dest_reg()) {
      reg_producer_slot_[*dest] = index;
      reg_producer_seq_[*dest] = e.seq;
    }
  }
}

// -------------------------------------------------------------------- issue

bool Core::entry_ready(const RuuEntry& e) const {
  for (u8 i = 0; i < e.producer_count; ++i) {
    const RuuEntry& p = ruu_[e.producer_slot[i]];
    if (p.valid && p.seq == e.producer_seq[i] && !p.completed) return false;
  }
  return true;
}

Cycle Core::issue_load(RuuEntry& e, u32 offset, Cycle now) {
  if (e.wrong_path) return now + 1;
  // Memory disambiguation: the youngest older store overlapping the load
  // forwards its data (1 cycle if it covers the load, a small penalty for a
  // partial overlap); otherwise the load accesses the D-cache.
  const WordBytes load = word_bytes(e.eff_addr, e.mem_size);
  for (u32 off = offset; off-- > 0;) {
    const RuuEntry& s = ruu_[ruu_index(off)];
    if (!s.valid || !s.is_store || s.wrong_path) continue;
    const u32 shared = shared_bytes(load, word_bytes(s.eff_addr, s.mem_size));
    if (shared != 0) {
      const bool covers = shared == load.mask;
      return now + (covers ? 1 : 3);
    }
  }
  return dl1_->access(now, e.eff_addr, e.mem_size, /*write=*/false);
}

void Core::stage_issue(Cycle now) {
  u32 issued = 0;
  u32 alu_used = 0;
  u32 mem_used = 0;
  bool mdu_used = false;
  bool store_waiting = false;  // a store older than `off` has not issued
  const RuuEntry* older = nullptr;  // the entry at `off - 1`
  for (u32 off = 0; off < ruu_count_ && issued < config_.issue_width; ++off) {
    if (older != nullptr) store_waiting |= older->valid && older->is_store && !older->issued;
    RuuEntry& e = ruu_at(off);
    older = &e;
    if (e.issued || !entry_ready(e)) continue;
    const OpClass cls = e.wrong_path ? OpClass::kIntAlu : e.instr.op_class();
    switch (cls) {
      case OpClass::kIntMul: {
        if (mdu_used || now < mdu_busy_until_) continue;
        const bool is_div = e.instr.op == Op::kDiv || e.instr.op == Op::kRem;
        e.complete_at = now + (is_div ? config_.div_latency : config_.mul_latency);
        if (is_div) mdu_busy_until_ = e.complete_at;  // divider is unpipelined
        mdu_used = true;
        break;
      }
      case OpClass::kLoad: {
        // Loads wait until all older stores have computed their addresses.
        if (mem_used == config_.mem_ports || store_waiting) continue;
        ++mem_used;
        e.complete_at = issue_load(e, off, now);
        break;
      }
      case OpClass::kStore: {
        if (mem_used == config_.mem_ports) continue;
        ++mem_used;
        e.complete_at = now + 1;  // address generation; data written at commit
        break;
      }
      default: {
        if (alu_used == config_.int_alus) continue;
        ++alu_used;
        e.complete_at = now + 1;
        break;
      }
    }
    e.issued = true;
    ++issued;
  }
}

// ----------------------------------------------------------------- dispatch

void Core::stage_dispatch(Cycle now) {
  if (now < commit_stall_until_) return;  // kernel time / module stall
  u32 dispatched = 0;
  while (dispatched < config_.dispatch_width) {
    if (serialize_active_ || fetch_buffer_.empty()) break;
    FetchedInstr& f = fetch_buffer_.front();
    if (f.ready_at > now) break;
    if (ruu_full()) {
      ++stats_.dispatch_stall_cycles;
      break;
    }
    const bool correct_path = !f.wrong_path;
    const OpClass cls = f.instr.op_class();
    const bool is_mem = cls == OpClass::kLoad || cls == OpClass::kStore;
    if (correct_path && is_mem && lsq_count_ == config_.lsq_size) {
      ++stats_.dispatch_stall_cycles;
      break;
    }
    // Syscalls/traps serialize.  So do blocking CHECKs to modules that write
    // guest memory through the MAU (MLR, DDT): the instructions after the
    // CHECK must observe the module's writes, so they may not execute until
    // the check completes ("the module returns control to the program after
    // the randomization is complete", section 5.3).  ICM CHECKs only gate
    // commit and deliberately overlap with execution.
    const bool serializing =
        correct_path &&
        (cls == OpClass::kSyscall || f.instr.op == Op::kInvalid ||
         (f.instr.op == Op::kChk && f.instr.chk_blocking &&
          f.instr.chk_module != isa::ModuleId::kIcm));
    if (serializing && ruu_count_ > 0) break;  // wait until the pipeline is empty

    const u32 index = ruu_index(ruu_count_);
    RuuEntry& e = ruu_[index];
    e = RuuEntry{};
    e.valid = true;
    e.seq = next_seq_++;
    e.pc = f.pc;
    e.instr = f.instr;
    e.wrong_path = f.wrong_path;

    // Capture operand values and producers before functional execution.
    engine::DispatchInfo di;
    di.tag = engine::InstrTag{.slot = index, .seq = e.seq};
    di.pc = f.pc;
    di.instr = f.instr;
    di.thread = thread_;
    di.wrong_path = f.wrong_path;
    const Instr::Sources sources = f.instr.source_regs();
    for (u8 i = 0; i < sources.count; ++i) {
      const u8 r = sources.regs[i];
      di.operands[di.operand_count++] = regs_[r];
      if (r != 0 && reg_producer_seq_[r] != 0) {
        e.producer_slot[e.producer_count] = reg_producer_slot_[r];
        e.producer_seq[e.producer_count] = reg_producer_seq_[r];
        ++e.producer_count;
      }
    }

    if (correct_path) {
      exec_functional(e, f);
      if (serializing) {
        // Syscalls/traps have no functional effect at dispatch; the OS runs
        // at commit.  Execution continues past the instruction.
        e.mispredicted = false;
        serialize_active_ = true;
      }
    }

    if (const auto dest = f.instr.dest_reg()) {
      reg_producer_slot_[*dest] = index;
      reg_producer_seq_[*dest] = e.seq;
    }

    ++ruu_count_;
    if (correct_path && is_mem) ++lsq_count_;
    ++dispatched;
    fetch_buffer_.pop();

    if (fw_) fw_->on_dispatch(di, now);

    if (correct_path && e.mispredicted) {
      // Everything currently in the fetch buffer (and everything fetched
      // until this branch resolves) is down the wrong path.
      wrong_path_mode_ = true;
      for (std::size_t i = 0; i < fetch_buffer_.size(); ++i) {
        fetch_buffer_.at(i).wrong_path = true;
      }
    }
  }
}

// -------------------------------------------------------------------- fetch

void Core::stage_fetch(Cycle now) {
  if (draining_) return;
  u32 fetched = 0;
  if (now < fetch_ready_at_) {
    ++stats_.fetch_stall_cycles;
    return;
  }
  while (fetched < config_.fetch_width && !fetch_buffer_.full()) {
    Word raw = memory_->read_u32(fetch_pc_);
    if (fetch_fault_) raw = fetch_fault_(fetch_pc_, raw);
    if (text_hi_ != 0 && (fetch_pc_ < text_lo_ || fetch_pc_ >= text_hi_)) {
      raw = 0xFC00'0000u;  // execute protection: decodes as illegal
    }
    const Cycle done = il1_->access(now, fetch_pc_, 4, /*write=*/false);

    FetchedInstr& f = fetch_buffer_.emplace_back();
    f.pc = fetch_pc_;
    f.instr = isa::decode(raw);
    f.wrong_path = wrong_path_mode_;
    f.ready_at = done;

    bool stop = false;
    switch (f.instr.op_class()) {
      case OpClass::kBranch: {
        f.predicted_taken = predictor_.predict_taken(f.pc);
        f.predicted_next = f.predicted_taken ? isa::branch_target(f.pc, f.instr) : f.pc + 4;
        stop = f.predicted_taken;
        break;
      }
      case OpClass::kJump: {
        if (f.instr.op == Op::kJ || f.instr.op == Op::kJal) {
          f.predicted_next = isa::jump_target(f.instr);
          if (f.instr.op == Op::kJal) predictor_.ras_push(f.pc + 4);
        } else {
          if (f.instr.op == Op::kJalr) predictor_.ras_push(f.pc + 4);
          Addr predicted = 0;
          if (f.instr.op == Op::kJr && f.instr.rs == isa::kRa) {
            predicted = predictor_.ras_pop();
          }
          if (predicted == 0) predicted = predictor_.predict_indirect(f.pc);
          f.predicted_next = predicted != 0 ? predicted : f.pc + 4;
        }
        f.predicted_taken = true;
        stop = true;
        break;
      }
      default:
        f.predicted_next = f.pc + 4;
        break;
    }

    fetch_pc_ = f.predicted_next;
    ++fetched;

    if (done > now + il1_->config().hit_latency) {
      fetch_ready_at_ = done;  // an I-cache miss blocks the fetch engine
      break;
    }
    if (stop) break;  // a predicted-taken control op ends the fetch group
  }
}

}  // namespace rse::cpu
