// The Reliability and Security Engine framework (paper section 3).
//
// The framework owns the input interface (the pipeline taps), the
// Instruction Output Queue, the Memory Access Unit, the module
// enable/disable unit, and the self-checking watchdog.  The simulated core
// calls the on_* methods as instructions move through the pipeline; the
// machine ticks the framework once per cycle after the core.  Each call
// becomes one event when some registered module declares its hook
// (Module::hooks), and an event pushed by the core in cycle N becomes
// visible to the declaring modules in cycle N+1 (the input latch of
// Table 3), in the order the core pushed them.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "mem/bus.hpp"
#include "mem/main_memory.hpp"
#include "rse/frame_types.hpp"
#include "rse/ioq.hpp"
#include "rse/mau.hpp"
#include "rse/module.hpp"

namespace rse::engine {

/// Framework-level CHECK operations (module# = kFramework).
inline constexpr u8 kFrameOpEnableModule = 1;   // imm12 = module id
inline constexpr u8 kFrameOpDisableModule = 2;  // imm12 = module id

/// Why the self-checking logic decoupled the framework (Table 2).
enum class SelfCheckVerdict : u8 {
  kOk,
  kNoProgress,       // CHECK never completed within the watchdog timeout
  kFalseAlarmStorm,  // too many check=1 transitions within the window
  kStuckAt1,         // output bit of a free IOQ entry stuck at 1
};

struct SelfCheckConfig {
  bool enabled = true;
  // Long enough for the slowest legitimate blocking CHECK (an MLR GOT copy
  // moves two 4 KB buffers over the bus, ~3k cycles); tests shrink it.
  Cycle watchdog_timeout = 50'000;
  u32 alarm_threshold = 8;  // check 0->1 transitions per window

  bool operator==(const SelfCheckConfig&) const = default;
};

struct FrameworkStats {
  u64 dispatches_seen = 0;
  u64 chk_instructions = 0;
  u64 commits_seen = 0;
  u64 squashes_seen = 0;
  u64 errors_reported = 0;       // check=1 results delivered to the pipeline
  /// errors_reported attributed to the module owning the IOQ entry (index =
  /// isa::ModuleId) — campaign classification credits detections with this.
  std::array<u64, isa::kNumModuleIds> errors_by_module{};
  u64 module_enables = 0;
  u64 module_disables = 0;
  u64 selfcheck_trips = 0;
  Cycle selfcheck_trip_cycle = 0;  // cycle of the first decoupling (0 = never)
};

class Framework {
 public:
  /// `ruu_entries` sizes the IOQ (one entry per re-order buffer slot).
  Framework(mem::MainMemory& memory, mem::BusArbiter& bus, u32 ruu_entries);

  // ---- construction-time wiring ----
  /// Register a module and subscribe it to the hooks it declares, after
  /// the modules already registered.  Throws SimError while events are
  /// pending: the new module would miss the ones queued before it.
  void add_module(std::unique_ptr<Module> module);
  Module* module(isa::ModuleId id) const;
  Mau& mau() { return mau_; }
  Ioq& ioq() { return ioq_; }
  mem::MainMemory& memory() { return *memory_; }

  /// Observer invoked when the self-checking logic decouples the framework.
  void set_selfcheck_observer(std::function<void(SelfCheckVerdict, Cycle)> observer) {
    selfcheck_observer_ = std::move(observer);
  }
  void set_selfcheck_config(SelfCheckConfig config);

  // ---- pipeline-facing interface ----
  void on_dispatch(const DispatchInfo& info, Cycle now);
  void on_execute(const ExecuteInfo& info, Cycle now) {
    if (!subscribers(Hook::kExecute).empty()) {
      events_.push(Event::Kind::kExecute, now + 1).execute = info;
    }
  }

  /// Commit notification.  For stores, called before the value reaches
  /// memory; the returned stall is charged to the commit stage (SavePage).
  Cycle on_commit(const CommitInfo& info, Cycle now);

  void on_squash(const InstrTag& tag, Cycle now);

  /// The commit unit observed check=1 for this slot and is about to flush
  /// the pipeline.  Feeds the watchdog's per-entry error-transition counter
  /// (section 3.4): too many error indications within the window — whether
  /// from a module that always alarms or from a stuck-at-1 check bit —
  /// declare the framework erroneous and decouple it.
  void on_check_error(u32 slot, Cycle now);

  /// The check bits the commit unit observes for a slot (constant (1,0) once
  /// the framework has decoupled itself into safe mode).
  Ioq::CheckBits check_bits(u32 slot) const {
    if (safe_mode_) return Ioq::CheckBits{true, false};
    return ioq_.observed(slot);
  }

  // ---- module-facing interface ----
  /// Write a module's check result to the IOQ, applying any injected module
  /// fault mode and the safe-mode override.
  void module_write_ioq(Module& module, const InstrTag& tag, bool check_valid, bool check,
                        Cycle now);

  // ---- per-cycle advance ----
  void tick(Cycle now);

  // ---- safe mode / self-check ----
  bool safe_mode() const { return safe_mode_; }
  SelfCheckVerdict verdict() const { return verdict_; }
  /// Re-couple the framework after a safe-mode trip (used by tests/OS).
  void recouple();

  const FrameworkStats& stats() const { return stats_; }

  /// Events queued and not yet delivered.
  std::size_t pending_events() const { return events_.size(); }

  /// Reset transient state between guest runs (modules, events, IOQ).
  void reset();

  /// Snapshot hook: IOQ, MAU, the latched event stream and the
  /// self-check state.  Module-internal state is serialized separately (the
  /// machine walks its typed module pointers); the self-check observer and
  /// module wiring are reconstructed by the normal construction path.
  /// Requires mau().idle() at capture time — see Mau::serialize_state.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.marker(0x46524D57u);  // "FRMW"
    ar.field(ioq_);
    ar.field(mau_);
    ar.field(events_);
    ar.field(safe_mode_);
    ar.field(verdict_);
    ar.field(alarm_counts_);
    ar.field(alarm_window_start_);
    ar.field(alarm_over_threshold_);
    ar.field(free_high_since_);
    ar.field(stats_);
  }

 private:
  /// One pipeline event on its way to the modules.  Every payload is
  /// trivially copyable, so an event is a plain struct.
  struct Event {
    enum class Kind : u8 { kDispatch, kExecute, kCommit, kSquash };
    Event() : squash{} {}
    Kind kind = Kind::kSquash;
    Cycle visible_from = 0;
    union {
      DispatchInfo dispatch;
      ExecuteInfo execute;
      CommitInfo commit;
      InstrTag squash;
    };

    /// Snapshot hook: the kind, then only the payload the kind selects,
    /// copied raw (the rest of the union is indeterminate bytes).
    template <class Ar>
    void serialize_state(Ar& ar) {
      ar.field(kind);
      ar.field(visible_from);
      switch (kind) {
        case Kind::kDispatch: payload(ar, dispatch); break;
        case Kind::kExecute: payload(ar, execute); break;
        case Kind::kCommit: payload(ar, commit); break;
        case Kind::kSquash: payload(ar, squash); break;
      }
    }

   private:
    template <class Ar, class T>
    static void payload(Ar& ar, T& member) {
      if constexpr (!Ar::kIsWriter) member = T{};  // makes it the active member
      ar.field(member);
    }
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  /// The events not yet delivered, oldest first: a ring of Events that
  /// doubles when full, so pushing and delivering never allocate once it
  /// has grown to the pipeline's width.
  class EventStream {
   public:
    /// Append an event (its payload still to be filled in).
    Event& push(Event::Kind kind, Cycle visible_from) {
      if (size_ == ring_.size()) grow();
      Event& event = ring_[(head_ + size_) & (ring_.size() - 1)];
      ++size_;
      event.kind = kind;
      event.visible_from = visible_from;
      return event;
    }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const Event& front() const { return ring_[head_]; }
    void pop() {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
    }
    void clear() { head_ = size_ = 0; }

    /// Snapshot hook: the undelivered events in order.
    template <class Ar>
    void serialize_state(Ar& ar) {
      u64 count = size_;
      ar.field(count);
      if constexpr (!Ar::kIsWriter) {
        clear();
        for (u64 i = 0; i < count; ++i) ar.field(push(Event::Kind::kSquash, 0));
      } else {
        for (u64 i = 0; i < count; ++i) ar.field(ring_[(head_ + i) & (ring_.size() - 1)]);
      }
    }

   private:
    void grow() {
      std::vector<Event> grown(ring_.empty() ? 64 : 2 * ring_.size());
      for (std::size_t i = 0; i < size_; ++i) grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
      ring_.swap(grown);
      head_ = 0;
    }

    std::vector<Event> ring_;  // size is 0 or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// The modules that declare `hook`, in registration order.
  const std::vector<Module*>& subscribers(Hook hook) const {
    return subscribers_[static_cast<unsigned>(hook)];
  }
  void deliver(const Event& event, Cycle now);
  void handle_frame_chk(const isa::Instr& instr, Cycle now);
  bool selfcheck_due(Cycle now) const;
  void run_selfcheck(Cycle now);
  void trip_selfcheck(SelfCheckVerdict verdict, Cycle now);

  mem::MainMemory* memory_;
  Ioq ioq_;
  Mau mau_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::array<Module*, isa::kNumModuleIds> by_id_{};
  std::array<std::vector<Module*>, kNumHooks> subscribers_;

  EventStream events_;

  // self-checking state
  SelfCheckConfig selfcheck_;
  bool safe_mode_ = false;
  SelfCheckVerdict verdict_ = SelfCheckVerdict::kOk;
  std::function<void(SelfCheckVerdict, Cycle)> selfcheck_observer_;
  std::vector<u32> alarm_counts_;       // per-slot check 0->1 transitions in window
  Cycle alarm_window_start_ = 0;
  bool alarm_over_threshold_ = false;   // some alarm_counts_ entry exceeds the threshold
  std::vector<Cycle> free_high_since_;  // per-slot: first cycle a free entry read as 1

  FrameworkStats stats_;
};

}  // namespace rse::engine
