// Out-of-order superscalar core in the style of SimpleScalar's sim-outorder:
// a unified RUU (ROB + reservation stations), an LSQ, 4-wide
// fetch/dispatch/issue/commit, and in-order functional execution at dispatch
// with a timing model layered on top.  This is the pipeline of Figure 1 of
// the paper, with tap points feeding the RSE framework:
//
//   dispatch      -> Fetch_Out + Regfile_Data (1-cycle latch)
//   writeback     -> Execute_Out
//   commit/squash -> Commit_Out (a load's value, the Memory_Out tap, rides
//                    in its mem_value)
//
// Commit consults the framework's IOQ check bits (Table 1): a blocking CHECK
// stalls commit until checkValid is set; check=1 flushes the pipeline and
// re-fetches from the CHECK so the failed check can be retried or escalated
// to the OS.
#pragma once

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "cpu/branch_predictor.hpp"
#include "isa/instruction.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
#include "rse/framework.hpp"

namespace rse::cpu {

struct CoreConfig {
  u32 fetch_width = 4;
  u32 dispatch_width = 4;
  u32 issue_width = 4;
  u32 commit_width = 4;
  u32 ruu_size = 16;
  u32 lsq_size = 8;
  u32 fetch_buffer_size = 4;
  u32 int_alus = 4;
  u32 mem_ports = 2;
  Cycle mul_latency = 3;
  Cycle div_latency = 20;
  PredictorConfig predictor;

  bool operator==(const CoreConfig&) const = default;
};

struct CoreStats {
  u64 instructions = 0;  // committed, excluding CHK
  u64 chk_committed = 0;
  u64 loads = 0;
  u64 stores = 0;
  u64 branches = 0;
  u64 mispredicts = 0;
  u64 syscalls = 0;
  u64 squashed = 0;  // squashed RUU entries (wrong path + CHECK flushes)
  u64 fetch_stall_cycles = 0;
  u64 dispatch_stall_cycles = 0;
  u64 chk_commit_stall_cycles = 0;  // blocking CHECK waiting on checkValid
  u64 module_stall_cycles = 0;      // SavePage and other module-induced stalls
  u64 check_error_flushes = 0;
  u64 run_cycles = 0;  // cycles during which the core was running
};

/// Architectural thread context owned by the guest OS.
struct ThreadContext {
  std::array<Word, isa::kNumRegs> regs{};
  Addr pc = 0;
};

/// The guest OS side of the core: syscalls and trap policy.
class OsClient {
 public:
  virtual ~OsClient() = default;

  struct SyscallResult {
    Cycle stall = 0;     // cycles the syscall consumes
    bool suspend = false;  // core should suspend after commit (reschedule)
  };
  /// A syscall instruction reached commit with the pipeline otherwise empty.
  /// The handler reads/writes registers through the core.
  virtual SyscallResult on_syscall(Cycle now) = 0;

  /// A module-detected CHECK error (check=1) reached commit.  Return true to
  /// flush and retry from the CHECK instruction, false to abandon the thread
  /// (the OS then owns recovery; the core suspends).
  virtual bool on_check_error(Cycle now, Addr pc, isa::ModuleId module) = 0;

  /// An illegal instruction (or trap-inducing fault) reached commit.
  virtual void on_illegal(Cycle now, Addr pc) = 0;
};

class Core {
 public:
  Core(const CoreConfig& config, mem::MainMemory& memory, mem::Cache& il1, mem::Cache& dl1);

  void attach_framework(engine::Framework* framework) { fw_ = framework; }
  void set_os(OsClient* os) { os_ = os; }

  // ---- context control (driven by the guest OS scheduler) ----
  void set_context(const ThreadContext& context, ThreadId thread);
  ThreadContext context() const;
  ThreadId thread() const { return thread_; }

  void resume() { running_ = true; }
  /// Stop fetching; once the pipeline drains the core suspends itself.
  void request_drain() { draining_ = true; }
  /// Immediately stop and discard all in-flight state (used when the OS
  /// terminates the running thread, e.g. during recovery).  The squashed
  /// instructions are reported to the RSE as usual.
  void halt(Cycle now);
  bool running() const { return running_; }
  /// True when suspended with an empty pipeline (safe to switch contexts).
  bool drained() const { return !running_ && ruu_count_ == 0; }

  // ---- architectural state (used by syscall handlers) ----
  Word reg(u8 index) const { return regs_[index]; }
  void set_reg(u8 index, Word value) {
    if (index != 0) regs_[index] = value;
  }
  Addr pc() const { return pc_; }
  void set_pc(Addr pc) { pc_ = pc; }

  // ---- per-cycle advance ----
  void cycle(Cycle now);

  // ---- fault injection ----
  /// Hook applied to every fetched instruction word (pc, raw) -> raw'.
  /// Models corruption between memory and dispatch — what the ICM detects.
  using FetchFaultHook = std::function<Word(Addr pc, Word raw)>;
  void set_fetch_fault_hook(FetchFaultHook hook) { fetch_fault_ = std::move(hook); }

  /// Execute protection: fetches outside [lo, hi) decode as illegal
  /// instructions and trap (the loader sets this to the text segment).
  /// hi == 0 disables the check.
  void set_text_range(Addr lo, Addr hi) {
    text_lo_ = lo;
    text_hi_ = hi;
  }
  Addr text_lo() const { return text_lo_; }
  Addr text_hi() const { return text_hi_; }

  /// Observer of every committed instruction in retirement order, syscalls
  /// and invalid words included, given the CommitInfo the framework's
  /// on_commit receives (for memory operations, the alignment-masked
  /// effective address and memory value).  It fires after the CHECK-error
  /// test and before the framework and the syscall handler see the commit.
  /// It is the one commit stream of a run whichever engine commits: an
  /// exec::FastSession on this core reports each instruction it commits
  /// here too, and after a bail the core continues the same stream (the
  /// session's contract is in exec/fast_session.hpp; its `now` is virtual
  /// time).  Its users: rse_run --trace (classic and --fast), DME trace
  /// recording (both engines) and checking, and tests.  Like every hook, it
  /// is excluded from serialize_state (snapshots never capture callbacks).
  using CommitObserver = std::function<void(Cycle now, const engine::CommitInfo& info)>;
  void set_commit_observer(CommitObserver observer) { commit_observer_ = std::move(observer); }
  const CommitObserver& commit_observer() const { return commit_observer_; }

  /// Execution-path fault injection: applied to the computed next PC of
  /// every control-flow instruction (pc, next) -> next'.  Models a soft
  /// error in the branch/address unit — the corruption class the CFC module
  /// detects (the instruction's binary is intact, so the ICM cannot).
  using BranchFaultHook = std::function<Addr(Addr pc, Addr next)>;
  void set_branch_fault_hook(BranchFaultHook hook) { branch_fault_ = std::move(hook); }

  /// Number of instructions that have taken architectural effect so far, in
  /// program order: dispatch-time functional execution for ordinary
  /// instructions (CHKs included), commit time for syscalls/traps, with
  /// squashed correct-path entries un-counted on flush.  A fault injected
  /// into `regs_`/`pc_` when functional_pos() == N lands exactly after the
  /// first N instructions of the functional stream — the alignment contract
  /// the exec/ fast-forward controller relies on (docs/execution.md).
  u64 functional_pos() const { return functional_pos_; }

  /// Guest-address ranges the pipeline holds in flight right now: the PC of
  /// every fetch-buffer entry, the PC of every RUU entry, and the byte range
  /// of every dispatched correct-path store that has not yet committed.
  /// A memory word flipped at this instant is *not* seen by those — the
  /// clean word was already captured at fetch/dispatch, or will be
  /// overwritten when the store commits — so the exec/ fast-forward
  /// controller refuses memory-word faults overlapping any returned range
  /// (the fast prefix has no pipeline and would observe the flip).
  std::vector<std::pair<Addr, u32>> inflight_ranges() const;

  const CoreStats& stats() const { return stats_; }
  const CoreConfig& config() const { return config_; }

  /// Snapshot hook: every value-state member of the pipeline.  Wiring
  /// (memory/cache/framework/OS pointers) and the injection hooks are *not*
  /// serialized — a restore targets a core constructed and wired through the
  /// normal path, and hooks are installed after the fork if a run needs them.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.marker(0x434F5245u);  // "CORE"
    ar.field(predictor_);
    ar.field(regs_);
    ar.field(pc_);
    ar.field(thread_);
    ar.field(fetch_pc_);
    ar.field(fetch_ready_at_);
    ar.field(fetch_buffer_);
    ar.field(wrong_path_mode_);
    ar.field(ruu_);
    ar.field(ruu_head_);
    ar.field(ruu_count_);
    ar.field(lsq_count_);
    ar.field(next_seq_);
    ar.field(reg_producer_slot_);
    ar.field(reg_producer_seq_);
    ar.field(serialize_active_);
    ar.field(mdu_busy_until_);
    ar.field(running_);
    ar.field(draining_);
    ar.field(commit_stall_until_);
    ar.field(functional_pos_);
    ar.field(text_lo_);
    ar.field(text_hi_);
    ar.field(stats_);
  }

 private:
  // FetchedInstr and RuuEntry name their padding (`spare` members, always
  // 0), so a snapshot copies the fetch buffer and the RUU as one block each.
  struct FetchedInstr {
    Addr pc = 0;
    isa::Instr instr;  // instr.raw is the word as fetched
    bool predicted_taken = false;
    u8 spare0[3] = {};
    Addr predicted_next = 0;
    bool wrong_path = false;
    u8 spare1[7] = {};
    Cycle ready_at = 0;  // icache fill time
  };

  struct RuuEntry {
    bool valid = false;
    u8 spare0[7] = {};
    u64 seq = 0;
    Addr pc = 0;
    isa::Instr instr;  // instr.raw is the word as fetched
    bool wrong_path = false;
    u8 spare1[3] = {};

    // functional results (correct-path only)
    Word result = 0;
    Addr eff_addr = 0;
    Word mem_value = 0;  // store value / loaded value
    u8 mem_size = 0;
    bool taken = false;
    bool mispredicted = false;
    u8 spare2 = 0;
    Addr recover_pc = 0;

    // register-undo record for CHECK-error flush recovery
    bool has_dest = false;
    u8 dest_reg = 0;
    u16 spare3 = 0;
    Word old_dest_value = 0;

    // scheduling
    bool issued = false;
    bool completed = false;
    u8 spare4[6] = {};
    Cycle complete_at = 0;
    u32 producer_slot[2] = {0, 0};
    u64 producer_seq[2] = {0, 0};
    u8 producer_count = 0;

    bool is_mem = false;
    bool is_store = false;
    u8 spare5[5] = {};
  };

  // pipeline stages (called youngest-stage-last each cycle)
  void stage_commit(Cycle now);
  void stage_writeback(Cycle now);
  void stage_issue(Cycle now);
  void stage_dispatch(Cycle now);
  void stage_fetch(Cycle now);

  // helpers
  /// The RUU slot `offset` entries behind the head (offset <= ruu_size),
  /// wrapped with a compare and a subtract: no divide on the cycle's path.
  u32 ruu_index(u32 offset) const {
    const u32 index = ruu_head_ + offset;
    return index < config_.ruu_size ? index : index - config_.ruu_size;
  }
  RuuEntry& ruu_at(u32 offset) { return ruu_[ruu_index(offset)]; }
  bool ruu_full() const { return ruu_count_ == config_.ruu_size; }

  void exec_functional(RuuEntry& entry, const FetchedInstr& fetched);
  Word read_mem_through_stores(Addr addr, u32 size, u32 upto_offset) const;
  void squash_younger_than(u32 offset, Cycle now);
  void flush_all(Cycle now, Addr refetch_pc);
  bool entry_ready(const RuuEntry& entry) const;
  Cycle issue_load(RuuEntry& entry, u32 offset, Cycle now);
  void recompute_producers();
  void free_head_entry(RuuEntry& entry);

  CoreConfig config_;
  mem::MainMemory* memory_;
  mem::Cache* il1_;
  mem::Cache* dl1_;
  engine::Framework* fw_ = nullptr;
  OsClient* os_ = nullptr;
  BranchPredictor predictor_;

  // architectural state
  std::array<Word, isa::kNumRegs> regs_{};
  Addr pc_ = 0;  // next instruction to execute functionally (dispatch point)
  ThreadId thread_ = kNoThread;

  // fetch engine
  Addr fetch_pc_ = 0;
  Cycle fetch_ready_at_ = 0;
  RingBuffer<FetchedInstr> fetch_buffer_;
  bool wrong_path_mode_ = false;

  // RUU / LSQ
  std::vector<RuuEntry> ruu_;
  u32 ruu_head_ = 0;
  u32 ruu_count_ = 0;
  u32 lsq_count_ = 0;
  u64 next_seq_ = 1;
  std::array<u32, isa::kNumRegs> reg_producer_slot_{};
  std::array<u64, isa::kNumRegs> reg_producer_seq_{};  // 0 = none

  // serialization (syscall / illegal at head)
  bool serialize_active_ = false;
  Cycle mdu_busy_until_ = 0;  // unpipelined divider occupancy

  // run state
  bool running_ = false;
  bool draining_ = false;
  Cycle commit_stall_until_ = 0;
  u64 functional_pos_ = 0;  // see functional_pos()

  FetchFaultHook fetch_fault_;
  BranchFaultHook branch_fault_;
  CommitObserver commit_observer_;
  Addr text_lo_ = 0;
  Addr text_hi_ = 0;
  CoreStats stats_;
};

}  // namespace rse::cpu
