// The framework's input interface (paper section 3.1) that modules can read
// by slot: the Fetch_Out register bank, which in this model also carries the
// Regfile_Data operand values.  It has as many entries as the re-order
// buffer.  Data latched from the pipeline becomes visible one cycle later
// (Table 3: "information passed by pipeline is available to the framework
// only after a delay of one cycle").  The other taps reach modules as the
// framework's event stream with the same delay: Execute_Out through
// Module::on_execute, Commit_Out through on_commit, and a load's value
// (Memory_Out) in Commit_Out's `mem_value`.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "rse/frame_types.hpp"

namespace rse::engine {

/// A slot-indexed latch bank with 1-cycle visibility delay.
template <typename Payload>
class LatchBank {
 public:
  explicit LatchBank(u32 entries) : slots_(entries) {}

  void latch(u32 slot, Payload payload, u64 seq, Cycle now) {
    Slot& s = slots_[slot];
    s.payload = std::move(payload);
    s.seq = seq;
    s.visible_from = now + 1;
    s.valid = true;
  }

  /// Read slot contents if they belong to instruction `seq` and are already
  /// visible at `now`.
  const Payload* read(u32 slot, u64 seq, Cycle now) const {
    const Slot& s = slots_[slot];
    if (!s.valid || s.seq != seq || s.visible_from > now) return nullptr;
    return &s.payload;
  }

  void invalidate(u32 slot, u64 seq) {
    Slot& s = slots_[slot];
    if (s.valid && s.seq == seq) s.valid = false;
  }

  void clear() {
    for (Slot& s : slots_) s.valid = false;
  }

  /// Snapshot hook: all latched slots (bank size is construction config).
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(slots_);
  }

 private:
  struct Slot {
    Payload payload{};
    u64 seq = 0;
    Cycle visible_from = 0;
    bool valid = false;
  };
  std::vector<Slot> slots_;
};

struct InputQueues {
  explicit InputQueues(u32 entries) : fetch_out(entries) {}

  // Fetch_Out carries the instruction bits and, in this model, the register
  // operand values (Regfile_Data) captured at dispatch.
  LatchBank<DispatchInfo> fetch_out;

  void clear() { fetch_out.clear(); }

  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(fetch_out);
  }
};

}  // namespace rse::engine
