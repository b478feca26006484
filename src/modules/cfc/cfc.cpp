#include "modules/cfc/cfc.hpp"

#include <algorithm>

#include "isa/semantics.hpp"

namespace rse::modules {

bool CfcModule::transition_legal(const LastCommit& last, Addr to_pc) {
  const Addr fallthrough = last.pc + 4;
  if (to_pc == fallthrough) return true;
  if (to_pc == last.pc) return true;  // CHECK-error flush retried in place

  switch (last.instr.op_class()) {
    case isa::OpClass::kBranch:
      // Direct conditional branch: the only other legal successor is the
      // target encoded in the instruction itself.
      return to_pc == isa::branch_target(last.pc, last.instr);
    case isa::OpClass::kJump:
      if (last.instr.op == isa::Op::kJ || last.instr.op == isa::Op::kJal) {
        return to_pc == isa::jump_target(last.instr);
      }
      // Indirect jump: the target is data-dependent.  With a static
      // successor table installed for this PC the landing must be in the
      // precomputed set; otherwise require at least a text-segment landing
      // (execute protection's contract).
      if (auto it = successors_.find(last.pc); it != successors_.end()) {
        ++stats_.indirect_static_checks;
        return std::binary_search(it->second.begin(), it->second.end(), to_pc);
      }
      ++stats_.indirect_range_checks;
      if (config_.text_hi != 0) {
        return to_pc >= config_.text_lo && to_pc < config_.text_hi;
      }
      return true;
    case isa::OpClass::kSyscall:
      return true;  // the OS may legitimately redirect control
    default:
      return false;  // straight-line code must stay sequential
  }
}

void CfcModule::on_commit(const engine::CommitInfo& info, Cycle now) {
  auto [it, inserted] = last_.try_emplace(info.thread);
  if (!inserted) {
    ++stats_.transitions_checked;
    if (!transition_legal(it->second, info.pc)) {
      ++stats_.violations;
      if (on_violation_) on_violation_(info.thread, it->second.pc, info.pc, now);
    }
  }
  it->second.pc = info.pc;
  it->second.instr = info.instr;
}

}  // namespace rse::modules
