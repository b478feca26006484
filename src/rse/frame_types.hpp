// Shared types of the RSE <-> pipeline interface (paper section 3.1).
//
// Instructions are addressed between the pipeline and the framework by their
// re-order buffer (RUU) slot number — "the instruction has a unique
// identifier, the reorder buffer entry number, by which it is addressed
// throughout its lifetime" (section 4.3).  Because a slot is reused after
// commit, the simulator pairs it with a monotonically increasing sequence
// number; hardware needs no such disambiguation since queue entries are
// freed in lock step, but the model asserts it.
#pragma once

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace rse::engine {

// The payloads below name their padding (`spare` members, always 0), so a
// snapshot copies each as one block.

struct InstrTag {
  u32 slot = 0;  // RUU / IOQ / input-queue entry index
  u32 spare = 0;
  u64 seq = 0;   // global dispatch sequence number

  friend bool operator==(const InstrTag&, const InstrTag&) = default;
};

/// Payload pushed when an instruction is dispatched: the union of what the
/// Fetch_Out and Regfile_Data queues deliver for one entry.
struct DispatchInfo {
  InstrTag tag;
  Addr pc = 0;
  isa::Instr instr;  // instr.raw: the bits exactly as fetched (ICM compares these)
  ThreadId thread = kNoThread;
  Word operands[2] = {0, 0};  // register operand values (Regfile_Data)
  u8 operand_count = 0;
  bool wrong_path = false;  // fetched down a mispredicted path
  u16 spare = 0;
};

/// Payload for Execute_Out: ALU result or effective address.
struct ExecuteInfo {
  InstrTag tag;
  Word result = 0;
  Addr eff_addr = 0;
  bool is_mem = false;
  u8 spare[7] = {};
};

/// Payload for Commit_Out.  Carries the data an asynchronous module logs as
/// permanent state when the commit signal arrives (section 3.2).  For stores
/// this callback is made *before* the store value reaches memory, which is
/// when the DDT's SavePage exception must fire.  A load's value (the paper's
/// Memory_Out tap) arrives here too, in `mem_value`.  The core's commit
/// observer (cpu::Core::set_commit_observer) receives the same record; the
/// word as fetched is `instr.raw`.
struct CommitInfo {
  InstrTag tag;
  Addr pc = 0;
  isa::Instr instr;
  ThreadId thread = kNoThread;
  Addr eff_addr = 0;   // valid for loads/stores
  Word mem_value = 0;  // store value (unmasked rt) / loaded value (extended)
  u32 spare = 0;
};
// The framework's event ring stores every payload in one union: a commit
// record must not outgrow a dispatch record.
static_assert(sizeof(CommitInfo) <= sizeof(DispatchInfo));

}  // namespace rse::engine
