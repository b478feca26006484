// Base class for RSE hardware modules (paper section 3.2).
//
// Every module, irrespective of functionality, has (i) a mechanism to scan
// the Fetch_Out queue for CHECK instructions intended for it — modeled by the
// framework routing dispatch events to `on_dispatch` — and (ii) a memory
// buffer for MAU transfers (owned by the concrete module).  Synchronous
// modules hold their CHECK's IOQ entry at checkValid=0 until the check
// completes; asynchronous modules set checkValid immediately and log
// permanent state on the commit signal.
#pragma once

#include <initializer_list>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "rse/frame_types.hpp"

namespace rse::engine {

class Framework;

/// Behavioural fault injected into a module for the Table 2 self-checking
/// experiments.
enum class ModuleFaultMode : u8 {
  kNone,
  kNoProgress,     // the module never produces a result
  kFalseAlarm,     // the module always declares an error
  kFalseNegative,  // the module always declares "no error"
};

/// The pipeline hooks a module can implement.  The framework pays for a
/// hook only while some registered module declares it (Module::hooks).
enum class Hook : u8 {
  kDispatch,     // on_dispatch
  kExecute,      // on_execute
  kCommit,       // on_commit
  kStoreCommit,  // on_store_commit
  kSquash,       // on_squash
  kTick,         // tick
};
inline constexpr unsigned kNumHooks = 6;

/// A set of Hooks.
class HookSet {
 public:
  constexpr HookSet(std::initializer_list<Hook> hooks) {
    for (Hook hook : hooks) bits_ |= bit(hook);
  }
  static constexpr HookSet all() {
    HookSet set{};
    set.bits_ = (1u << kNumHooks) - 1;
    return set;
  }
  constexpr bool has(Hook hook) const { return (bits_ & bit(hook)) != 0; }

 private:
  static constexpr u8 bit(Hook hook) { return static_cast<u8>(1u << static_cast<u8>(hook)); }
  u8 bits_ = 0;
};

class Module {
 public:
  explicit Module(Framework& framework) : fw_(&framework) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual isa::ModuleId id() const = 0;
  virtual const char* name() const = 0;

  /// The hooks this module implements.  Framework::add_module reads it
  /// once: a hook is called only on the modules that declare it, and an
  /// event is queued only for a kind some registered module declares, so a
  /// module that overrides a hook must declare it or never see its calls.
  /// The default declares every hook.
  virtual HookSet hooks() const { return HookSet::all(); }

  /// Advance internal pipelines/counters by one cycle.
  virtual void tick(Cycle /*now*/) {}

  /// A dispatched instruction became visible in Fetch_Out (1 cycle after
  /// dispatch).  Modules filter for CHK instructions addressed to them and
  /// for the instruction classes they monitor.
  virtual void on_dispatch(const DispatchInfo& /*info*/, Cycle /*now*/) {}

  /// Execute_Out data became visible for an instruction.
  virtual void on_execute(const ExecuteInfo& /*info*/, Cycle /*now*/) {}

  /// Commit signal: the instruction retired; async modules log permanent
  /// state now.  Store commits arrive through on_store_commit instead.
  virtual void on_commit(const CommitInfo& /*info*/, Cycle /*now*/) {}

  /// A store is about to retire and write memory.  Returns extra cycles the
  /// commit stage must stall (e.g. DDT SavePage handling); 0 otherwise.
  virtual Cycle on_store_commit(const CommitInfo& /*info*/, Cycle /*now*/) { return 0; }

  /// The pipeline squashed this instruction; drop any state tied to it.
  virtual void on_squash(const InstrTag& /*tag*/, Cycle /*now*/) {}

  /// Drop all transient state (used on guest process teardown and by tests).
  virtual void reset() {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (!enabled) reset();
  }

  ModuleFaultMode fault_mode() const { return fault_mode_; }
  void inject_fault(ModuleFaultMode mode) { fault_mode_ = mode; }

  /// Snapshot hook for the base-class state; concrete modules call this from
  /// their own serialize_state.  Assigns enabled_ directly — set_enabled's
  /// reset-on-disable side effect must not fire during a restore.
  template <class Ar>
  void serialize_base(Ar& ar) {
    ar.field(enabled_);
    ar.field(fault_mode_);
  }

 protected:
  Framework* fw_;

 private:
  bool enabled_ = false;
  ModuleFaultMode fault_mode_ = ModuleFaultMode::kNone;
};

}  // namespace rse::engine
