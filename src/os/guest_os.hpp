// A small guest operating system running on the simulated machine: program
// loader (with optional MLR layout randomization), syscall layer, a
// round-robin thread scheduler with blocking I/O, the DDT SavePage exception
// handler, and the thread-recovery driver of paper section 4.2 (terminate the
// faulty thread's dependent closure, undo its memory updates from the saved
// pages, resume the healthy survivors).
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/rng.hpp"
#include "isa/program.hpp"
#include "os/checkpoint.hpp"
#include "os/machine.hpp"
#include "os/network.hpp"

namespace rse::os {

/// Syscall numbers (guest ABI: number in v0, args in a0..a2, result in v0).
enum class Sys : u32 {
  kExit = 1,         // a0 = exit code; terminates the whole process
  kPrintInt = 2,     // a0 = value
  kPrintChar = 3,    // a0 = character
  kClock = 4,        // -> v0 = current cycle (low 32 bits)
  kSbrk = 5,         // a0 = bytes; -> v0 = old break
  kThreadCreate = 6, // a0 = entry pc, a1 = argument; -> v0 = tid
  kThreadExit = 7,
  kYield = 8,
  kJoin = 9,         // a0 = tid; blocks until it terminates
  kNetAccept = 10,   // -> v0 = request id, or -1 when no requests remain
  kNetIo = 11,       // blocks for a backend I/O latency
  kNetReply = 12,    // a0 = request id
  kCrash = 13,       // simulate a (malicious) crash of the current thread
  kRand = 14,        // -> v0 = pseudo-random value
  kPrintStr = 15,    // a0 = address of NUL-terminated string
  // Runtime re-randomization support (paper section 4.1 extension):
  kRegisterGot = 16,       // a0 = GOT address, a1 = PLT address, a2 = size bytes
  kRegisterPtrTable = 17,  // a0 = table of pointer-slot addresses, a1 = count
};

enum class ThreadState : u8 {
  kReady,
  kRunning,
  kBlockedIo,
  kBlockedAccept,
  kBlockedJoin,
  kTerminated,  // clean exit
  kKilled,      // crashed or terminated by recovery
};

struct OsConfig {
  Cycle quantum = 20'000;
  Cycle context_switch_cost = 300;
  Cycle syscall_cost = 40;
  u32 thread_stack_bytes = 64 * 1024;
  u32 max_threads = 16;
  u32 check_error_retries = 3;  // CHECK-error flush/retry budget per PC
  bool randomize_layout = false;  // loader invokes the MLR module
  /// Runtime re-randomization period (0 = off): every interval the process
  /// is stopped at a drain point and the MLR relocates the registered GOT,
  /// rewriting the PLT and every compiler-recorded pointer slot.
  Cycle rerandomize_interval = 0;
  u64 max_checkpoint_bytes = 0;   // 0 = unbounded
  Cycle run_limit = 2'000'000'000;
  u64 seed = 42;
  /// Install the CFG-derived legal-successor table into the CFC module at
  /// load, tightening its indirect-jump check from "in text range" to "in
  /// the statically computed target set".  The table comes from the
  /// program's static analysis (load_analysis): handed to load() when the
  /// caller has it, computed by the loader otherwise.
  bool static_cfc = false;
  /// Hand the DDT the data-flow page footprint from the same analysis at
  /// load: PST entries are pre-reserved for the predicted store pages and a
  /// committed access at a statically resolved site landing outside the
  /// predicted page set raises a footprint-violation detection.
  bool static_ddt = false;
  /// Analyzer call model behind static_cfc/static_ddt: interprocedural
  /// per-function summaries (default) vs. the flat full-clobber model
  /// (`--flat-footprint` on the tools).  Summaries resolve more sites, so
  /// the DDT checks more accesses; the flag feeds the campaign golden-run
  /// cache key and determinism digest.
  bool footprint_summaries = true;
  /// Context-sensitive footprint cloning depth (AnalysisOptions::
  /// context_depth; effective only with footprint_summaries).  Depth > 0
  /// additionally installs the analyzer's per-site page tables into the DDT
  /// so a resolved site is checked against its own context-merged pages
  /// instead of the whole-program set.  0 = context-insensitive (bit-for-bit
  /// the pre-context behavior).
  u32 context_depth = 1;
  /// Field-sensitive strided-interval footprint domain (AnalysisOptions::
  /// field_sensitive): per-site residue page sets instead of dense hulls.
  /// Feeds the golden-run cache key and determinism digest.  Off =
  /// bit-for-bit the dense interval behavior (`--no-field-sensitive`).
  bool field_sensitive = true;
  /// Abstract-$sp recursion context depth for field-sensitive summary
  /// cloning (AnalysisOptions::field_sp_depth): recursive frames are cloned
  /// per recursion rung up to this bound, then fall back to the joined
  /// context.  Effective only with field_sensitive and context_depth > 0.
  u32 field_sp_depth = 2;

  bool operator==(const OsConfig&) const = default;
};

/// The static analyzer's options under `config`: what GuestOs::load analyses
/// the program with for static_cfc/static_ddt, and what `rse_run --lint`
/// checks before that run.
analysis::AnalysisOptions analysis_options(const OsConfig& config);

/// The static analysis GuestOs::load installs for `program` under `config`:
/// the analyzer's result under analysis_options(config), or null unless
/// static_cfc or static_ddt asks for one.  It depends on nothing else, so a
/// caller that loads one program many times computes it once and hands it
/// to every load (campaign::GoldenRun::analysis).
std::shared_ptr<const analysis::AnalysisResult> load_analysis(const isa::Program& program,
                                                              const OsConfig& config);

struct RecoveryReport {
  ThreadId faulty = kNoThread;
  std::vector<ThreadId> killed;     // dependent closure, including faulty
  std::vector<ThreadId> survivors;  // healthy threads that keep running
  u32 pages_restored = 0;
  bool total_loss = false;  // needed history was garbage-collected: kill all

  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(faulty);
    ar.field(killed);
    ar.field(survivors);
    ar.field(pages_restored);
    ar.field(total_loss);
  }
};

/// One contiguous stretch of a thread owning the core (for Figure 8-style
/// execution timelines).
struct RunSlice {
  ThreadId thread = kNoThread;
  Cycle from = 0;
  Cycle to = 0;

  /// Snapshot hook, field by field: the struct has padding.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(thread);
    ar.field(from);
    ar.field(to);
  }
};

struct OsStats {
  u64 context_switches = 0;
  u64 preemptions = 0;
  u64 syscalls = 0;
  u64 check_error_retries = 0;
  u64 check_error_aborts = 0;
  /// CHECK errors escalated to the OS, attributed to the reporting module
  /// (index = isa::ModuleId) — fault-injection campaigns use this to credit
  /// the detecting module.
  std::array<u64, isa::kNumModuleIds> check_errors_by_module{};
  u64 illegal_traps = 0;  // illegal-instruction crashes (distinct from kCrash)
  u64 crashes = 0;
  u64 recoveries = 0;
  u64 pages_saved = 0;
  u64 rerandomizations = 0;
  Cycle rerandomize_cycles = 0;  // total process-stop time spent relocating
  Cycle loader_cycles = 0;
};

class GuestOs : public cpu::OsClient {
 public:
  GuestOs(Machine& machine, OsConfig config = {});

  // ---- process lifecycle ----
  /// Load a program: place segments, register ICM checked instructions,
  /// optionally randomize the layout via the MLR module, install the static
  /// tables, create thread 0.  A non-null `analysis` must equal
  /// load_analysis(program, config()): the loader installs it instead of
  /// running the analyzer (and ignores it when the config asks for none).
  void load(const isa::Program& program,
            std::shared_ptr<const analysis::AnalysisResult> analysis = nullptr);

  /// Step until the process exits, every thread is dead, the clock reaches
  /// `cycle`, or run_limit hits.  Returns whether the guest is still live
  /// and below run_limit: the condition under which a campaign applies a
  /// fault at `cycle`.  A campaign run's prefix and suffix, the fast-forward
  /// boundary replay and the snapshot chain all step through this one loop.
  bool run_until(Cycle cycle);
  /// Run until the process exits, every thread is dead, or run_limit hits.
  void run();
  /// Advance one machine cycle plus scheduler work (for tests).
  void step();

  bool finished() const;
  int exit_code() const { return exit_code_; }
  const std::string& output() const { return output_; }

  // ---- module convenience (host-side enable, as the loader would) ----
  void enable_module(isa::ModuleId id);

  // ---- introspection ----
  Machine& machine() { return *machine_; }
  const OsConfig& config() const { return config_; }
  SimNetwork& network() { return network_; }
  const OsStats& stats() const { return stats_; }
  ThreadState thread_state(ThreadId tid) const;
  u32 live_thread_count() const;
  const std::vector<RecoveryReport>& recoveries() const { return recovery_reports_; }
  /// Execution slices in chronological order (recorded when enabled).
  const std::vector<RunSlice>& run_slices() const { return run_slices_; }
  void set_record_slices(bool record) { record_slices_ = record; }
  Addr stack_base() const { return stack_base_; }
  Addr heap_base() const { return heap_base_; }
  Addr shlib_base() const { return shlib_base_; }

  /// Crash a thread from the host side (fault injection).
  void inject_crash(ThreadId tid);

  /// Current location of the registered GOT (moves on re-randomization).
  Addr got_location() const { return got_addr_; }

  /// Static analysis of the loaded program (load_analysis): the result
  /// handed to load() if there was one, else the loader's own; null unless
  /// OsConfig::static_cfc or OsConfig::static_ddt asks for it.
  const analysis::AnalysisResult* program_analysis() const { return analysis_.get(); }

  // ---- cpu::OsClient ----
  SyscallResult on_syscall(Cycle now) override;
  bool on_check_error(Cycle now, Addr pc, isa::ModuleId module) override;
  void on_illegal(Cycle now, Addr pc) override;

  /// Snapshot hook (MachineSnapshot): every value-state member of the OS.
  /// Config, the machine pointer, and the program analysis are *not*
  /// serialized — a restore targets a GuestOs constructed with the same
  /// config that has load()ed the same program, which reproduces them (and
  /// reinstalls the module handler lambdas) exactly.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.marker(0x4755534Fu);  // "GUSO"
    ar.field(rng_);
    ar.field(network_);
    ar.field(checkpoints_);
    ar.field(threads_);
    ar.field(ready_);
    ar.field(current_);
    ar.field(quantum_start_);
    ar.field(switching_to_);
    ar.field(switch_done_at_);
    ar.field(pending_crash_);
    ar.field(got_addr_);
    ar.field(got_size_);
    ar.field(plt_addr_);
    ar.field(plt_size_);
    ar.field(ptr_slots_);
    ar.field(next_rerandomize_);
    ar.field(rerandomize_pending_);
    ar.field(process_exited_);
    ar.field(exit_code_);
    ar.field(output_);
    ar.field(brk_);
    ar.field(stack_base_);
    ar.field(heap_base_);
    ar.field(shlib_base_);
    ar.field(check_error_counts_);
    ar.field(recovery_reports_);
    ar.field(record_slices_);
    ar.field(run_slices_);
    ar.field(slice_started_);
    ar.field(stats_);
  }

 private:
  struct Thread {
    ThreadId id = 0;
    cpu::ThreadContext ctx;
    ThreadState state = ThreadState::kReady;
    Cycle wake_at = 0;        // kBlockedIo
    ThreadId join_target = kNoThread;
    Addr stack_top = 0;

    /// Snapshot hook, field by field: the struct has padding.
    template <class Ar>
    void serialize_state(Ar& ar) {
      ar.field(id);
      ar.field(ctx);
      ar.field(state);
      ar.field(wake_at);
      ar.field(join_target);
      ar.field(stack_top);
    }
  };

  void scheduler_tick(Cycle now);
  void make_ready(ThreadId tid);
  void block_current(ThreadState state);
  std::optional<ThreadId> pick_next();
  void begin_switch(ThreadId next, Cycle now);
  void finish_process(int code);
  void handle_crash(ThreadId tid, Cycle now);
  RecoveryReport recover(ThreadId faulty, Cycle now);
  Cycle save_page(u32 page, ThreadId writer, Cycle now);
  void install_ddt_footprint(const isa::Program& program);
  void register_stack_footprint(const Thread& thread);
  void wake_joiners(ThreadId dead);
  Cycle rerandomize_now(Cycle now);
  void note_slice_start(Cycle now);
  void note_slice_end(Cycle now);

  Machine* machine_;
  OsConfig config_;
  Xorshift64 rng_;
  SimNetwork network_;
  CheckpointStore checkpoints_;

  std::vector<Thread> threads_;
  std::deque<ThreadId> ready_;
  ThreadId current_ = kNoThread;
  Cycle quantum_start_ = 0;

  // two-phase context switch (drain happened; waiting out the switch cost)
  std::optional<ThreadId> switching_to_;
  Cycle switch_done_at_ = 0;
  // host-injected crash of the currently running thread, applied once drained
  std::optional<ThreadId> pending_crash_;

  // runtime re-randomization state
  Addr got_addr_ = 0;
  u32 got_size_ = 0;
  Addr plt_addr_ = 0;
  u32 plt_size_ = 0;
  std::vector<Addr> ptr_slots_;  // compiler-recorded pointer locations
  Cycle next_rerandomize_ = 0;
  bool rerandomize_pending_ = false;

  bool process_exited_ = false;
  int exit_code_ = 0;
  std::string output_;

  Addr brk_ = 0;
  Addr stack_base_ = isa::kDefaultStackTop;
  Addr heap_base_ = 0;
  Addr shlib_base_ = isa::kDefaultShlibBase;

  std::shared_ptr<const analysis::AnalysisResult> analysis_;
  std::map<Addr, u32> check_error_counts_;
  std::vector<RecoveryReport> recovery_reports_;
  bool record_slices_ = false;
  std::vector<RunSlice> run_slices_;
  Cycle slice_started_ = 0;
  OsStats stats_;
};

}  // namespace rse::os
