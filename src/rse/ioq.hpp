// Instruction Output Queue (paper section 3.2, Table 1).
//
// One entry per RUU slot, allocated when the instruction is forwarded to the
// framework (i.e. at dispatch).  The (checkValid, check) bit pair tells the
// commit stage what to do:
//
//   checkValid=0 check=0  free, or CHECK still executing -> commit may stall
//   checkValid=1 check=0  non-CHECK instruction, or CHECK passed -> commit
//   checkValid=1 check=1  CHECK detected an error -> flush the pipeline
//
// The queue also hosts the stuck-at fault-injection hooks used by the
// self-checking experiments of Table 2, and tells the self-checking watchdog
// when a scan of its entries can find anything (unanswered_since,
// stuck_fault_injected).
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "rse/frame_types.hpp"

namespace rse::engine {

/// Stuck-at fault injected on one IOQ entry's output bits (Table 2, row 4).
enum class IoqStuckFault : u8 {
  kNone,
  kCheckValidStuck0,
  kCheckValidStuck1,
  kCheckStuck0,
  kCheckStuck1,
};

class Ioq {
 public:
  struct Entry {
    bool allocated = false;
    bool pending_check = false;  // a module owes this entry a result
    bool check_valid = false;
    bool check = false;
    InstrTag tag;
    isa::ModuleId module = isa::ModuleId::kFramework;
    // transition bookkeeping for the self-checking watchdog
    Cycle allocated_at = 0;
    Cycle last_valid_set = 0;

    /// Snapshot hook, field by field: the struct has padding.
    template <class Ar>
    void serialize_state(Ar& ar) {
      ar.field(allocated);
      ar.field(pending_check);
      ar.field(check_valid);
      ar.field(check);
      ar.field(tag);
      ar.field(module);
      ar.field(allocated_at);
      ar.field(last_valid_set);
    }
  };

  /// unanswered_since() when no entry owes a result.
  static constexpr Cycle kNoneUnanswered = ~Cycle{0};

  explicit Ioq(u32 entries) : entries_(entries) {}

  u32 size() const { return static_cast<u32>(entries_.size()); }

  /// Allocate the entry for a dispatched instruction.  CHECK instructions
  /// addressed to a live module start at (checkValid=0, check=0); everything
  /// else — including CHECKs to disabled modules, whose path the
  /// enable/disable unit desensitizes to a constant (1,0) — starts at (1,0)
  /// so the pipeline commits it as usual.
  void allocate(const InstrTag& tag, bool pending_check, isa::ModuleId module, Cycle now) {
    Entry& e = entries_[tag.slot];
    e.allocated = true;
    e.pending_check = pending_check;
    e.tag = tag;
    e.module = module;
    e.check_valid = !pending_check;
    e.check = false;
    e.allocated_at = now;
    e.last_valid_set = now;
    if (pending_check) unanswered_since_ = std::min(unanswered_since_, now);
  }

  /// Module writes its result.  In safe (decoupled) mode the framework
  /// overrides the module output with the constant (1, 0) pair.
  void module_write(const InstrTag& tag, bool check_valid, bool check, Cycle now, bool safe_mode) {
    Entry& e = entries_[tag.slot];
    if (!e.allocated || e.tag.seq != tag.seq) return;  // already freed/squashed
    if (safe_mode) {
      check_valid = true;
      check = false;
    }
    e.check_valid = check_valid;
    e.check = check;
    if (check_valid) {
      e.last_valid_set = now;
    } else if (e.pending_check) {
      unanswered_since_ = std::min(unanswered_since_, e.allocated_at);
    }
  }

  void free(const InstrTag& tag) {
    Entry& e = entries_[tag.slot];
    if (e.allocated && e.tag.seq == tag.seq) e = Entry{};
  }

  void free_all() {
    for (Entry& e : entries_) e = Entry{};
    unanswered_since_ = kNoneUnanswered;
  }

  /// A lower bound on the allocation cycle of every entry that owes a
  /// module result and has none yet (allocated, pending_check and a written
  /// checkValid of 0), or kNoneUnanswered.  Answers, frees and squashes
  /// leave it unchanged, so it can be too low but never too high;
  /// refresh_unanswered() makes it exact.
  Cycle unanswered_since() const { return unanswered_since_; }
  void refresh_unanswered() {
    unanswered_since_ = kNoneUnanswered;
    for (const Entry& e : entries_) {
      if (e.allocated && e.pending_check && !e.check_valid) {
        unanswered_since_ = std::min(unanswered_since_, e.allocated_at);
      }
    }
  }

  /// The (checkValid, check) pair as seen by the commit unit, i.e. after any
  /// injected stuck-at fault on the output bits.
  struct CheckBits {
    bool check_valid;
    bool check;
  };
  CheckBits observed(u32 slot) const {
    const Entry& e = entries_[slot];
    CheckBits bits{e.check_valid, e.check};
    switch (fault_) {
      case IoqStuckFault::kNone: break;
      case IoqStuckFault::kCheckValidStuck0:
        if (slot == fault_slot_) bits.check_valid = false;
        break;
      case IoqStuckFault::kCheckValidStuck1:
        if (slot == fault_slot_) bits.check_valid = true;
        break;
      case IoqStuckFault::kCheckStuck0:
        if (slot == fault_slot_) bits.check = false;
        break;
      case IoqStuckFault::kCheckStuck1:
        if (slot == fault_slot_) bits.check = true;
        break;
    }
    return bits;
  }

  const Entry& entry(u32 slot) const { return entries_[slot]; }

  void inject_stuck_fault(u32 slot, IoqStuckFault fault) {
    fault_slot_ = slot;
    fault_ = fault;
    stuck_fault_injected_ = true;
  }
  /// True once inject_stuck_fault has been called, even if a later call
  /// cleared the fault: what the watchdog learned about the faulty bits may
  /// still need updating.
  bool stuck_fault_injected() const { return stuck_fault_injected_; }

  /// Snapshot hook: every entry, the injected stuck-at fault state and the
  /// watchdog's unanswered bound.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(entries_);
    ar.field(fault_);
    ar.field(fault_slot_);
    ar.field(stuck_fault_injected_);
    ar.field(unanswered_since_);
  }

 private:
  std::vector<Entry> entries_;
  IoqStuckFault fault_ = IoqStuckFault::kNone;
  u32 fault_slot_ = 0;
  bool stuck_fault_injected_ = false;
  Cycle unanswered_since_ = kNoneUnanswered;
};

}  // namespace rse::engine
