// Control-Flow Checker module — a fifth, watchdog-style checker that
// demonstrates the framework's extensibility claim ("the generic interface
// can support ... a variety of reliability as well as security checking
// routines", sections 2-3; compare the watchdog/signature monitors of
// Mahmood & McCluskey and Wilken & Kong the paper positions itself against).
//
// The module rides the Commit_Out stream and checks the *sequence* of
// committed PCs per thread:
//
//   * after a non-control instruction, the next committed PC must be
//     sequential (pc+4) — or equal (a CHECK-error flush retries in place);
//   * after a direct branch, the next PC must be the fall-through or the
//     target computed from the instruction's own bits;
//   * after a direct jump/call, the next PC must be the encoded target;
//   * after an indirect jump (jr/jalr), the next PC must lie in the static
//     legal-successor set when the loader installed one for that PC
//     (analysis::indirect_targets), and must at least lie in the text
//     segment otherwise;
//   * a trap/syscall may be followed by anything the OS chooses.
//
// This catches *execution-path* control-flow corruption (a flipped branch
// target leaving the ALU/branch unit) that the ICM cannot see — the ICM
// guards the instruction's binary, not the datapath that consumes it.
// Detection happens at the commit of the wrongly-reached instruction, so
// recovery is containment (the OS treats the thread as crashed), not retry.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "rse/framework.hpp"
#include "rse/module.hpp"

namespace rse::modules {

struct CfcConfig {
  Addr text_lo = 0;  // legal range for indirect-jump targets (loader-set)
  Addr text_hi = 0;

  bool operator==(const CfcConfig&) const = default;
};

/// Per-indirect-jump legal-successor sets, statically computed by the
/// analysis layer (analysis::indirect_targets) and installed by the loader.
/// Keys are the PCs of *resolved* indirect jumps; an indirect jump whose PC
/// is absent falls back to the text-range check.
using CfcSuccessorTable = std::unordered_map<Addr, std::vector<Addr>>;

struct CfcStats {
  u64 transitions_checked = 0;
  u64 violations = 0;
  u64 indirect_static_checks = 0;  // indirect transitions matched against the table
  u64 indirect_range_checks = 0;   // fallback: "lands somewhere in text"
};

class CfcModule : public engine::Module {
 public:
  /// Invoked on a control-flow violation: the thread whose stream broke,
  /// the instruction the flow came from, and the PC it illegally reached.
  using ViolationHandler = std::function<void(ThreadId thread, Addr from_pc, Addr to_pc,
                                              Cycle now)>;

  explicit CfcModule(engine::Framework& framework, CfcConfig config = {})
      : Module(framework), config_(config) {}

  isa::ModuleId id() const override { return isa::ModuleId::kCfc; }
  const char* name() const override { return "CFC"; }
  engine::HookSet hooks() const override { return {engine::Hook::kCommit}; }

  void set_violation_handler(ViolationHandler handler) { on_violation_ = std::move(handler); }
  void set_text_range(Addr lo, Addr hi) {
    config_.text_lo = lo;
    config_.text_hi = hi;
  }

  /// Install (or clear, with an empty table) the static legal-successor
  /// table.  Tightens the indirect-jump check from "within text range" to
  /// "within the statically computed target set" for every PC in the table.
  void set_successor_table(CfcSuccessorTable table) { successors_ = std::move(table); }

  void on_commit(const engine::CommitInfo& info, Cycle now) override;
  // Uniform module-reset semantics: dynamic state and statistics clear;
  // load-time configuration (text range, successor table) survives.
  void reset() override {
    last_.clear();
    current_ = nullptr;
    stats_ = CfcStats{};
  }

  /// Forget a terminated thread's stream state.
  void forget_thread(ThreadId thread) {
    last_.erase(thread);
    current_ = nullptr;
  }

  const CfcStats& stats() const { return stats_; }

  /// Snapshot hook: per-thread stream state, successor table, text range and
  /// statistics.  The violation handler is reinstalled by the guest OS.
  template <class Ar>
  void serialize_state(Ar& ar) {
    serialize_base(ar);
    ar.field(config_);
    ar.field(stats_);
    ar.field(successors_);
    ar.field(last_);
    current_ = nullptr;  // a restore rebuilds last_
  }

 private:
  struct LastCommit {
    Addr pc = 0;
    isa::Instr instr;
  };

  bool transition_legal(const LastCommit& last, Addr to_pc);

  CfcConfig config_;
  CfcStats stats_;
  ViolationHandler on_violation_;
  CfcSuccessorTable successors_;
  std::unordered_map<ThreadId, LastCommit> last_;
  // The entry (thread and stream) of the thread that committed last, or null
  // to look it up, so a thread that commits again skips the hash.  Map nodes
  // never move; every call that erases or rebuilds last_ drops it.  Not in a
  // snapshot.
  std::unordered_map<ThreadId, LastCommit>::value_type* current_ = nullptr;
};

}  // namespace rse::modules
