// A simple in-order functional interpreter for the guest ISA — the reference
// the pipeline differential suites compare the out-of-order core against:
// both must retire the same architectural state for any program.  Its
// semantics are isa::execute (isa/semantics.hpp), shared with the core and
// the fast engine and judged by tests/isa/semantics_test.cpp.  CHK
// instructions are architectural NOPs here; syscalls are delegated to a
// host callback.
#pragma once

#include <array>
#include <functional>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "mem/main_memory.hpp"

namespace rse::isa {

class Interpreter {
 public:
  /// Syscall handler: reads/writes registers through the interpreter.
  /// Returns false to stop execution (e.g. sys_exit).
  using SyscallHandler = std::function<bool(Interpreter&)>;

  explicit Interpreter(mem::MainMemory& memory) : memory_(&memory) {}

  void set_pc(Addr pc) { pc_ = pc; }
  Addr pc() const { return pc_; }
  Word reg(u8 index) const { return regs_[index]; }
  void set_reg(u8 index, Word value) {
    if (index != 0) regs_[index] = value;
  }
  const std::array<Word, kNumRegs>& regs() const { return regs_; }

  void set_syscall_handler(SyscallHandler handler) { on_syscall_ = std::move(handler); }

  u64 instructions_executed() const { return executed_; }

  /// Why run() returned.
  enum class Stop {
    kHandlerStop,  ///< syscall handler asked to stop (normally sys_exit)
    kIllegal,      ///< undecodable instruction word
    kBudget,       ///< max_instructions exhausted — the program did NOT exit
  };

  /// Execute one instruction.  Returns false when execution should stop
  /// (sys_exit via the handler, or an illegal instruction).
  bool step();

  /// True when the last stopping step() hit an undecodable instruction.
  bool hit_illegal() const { return hit_illegal_; }

  /// Run until stop or the instruction budget is exhausted.  Callers must
  /// distinguish kBudget (a runaway/hung guest) from a clean handler stop.
  Stop run(u64 max_instructions = 10'000'000) {
    for (u64 i = 0; i < max_instructions; ++i) {
      if (!step()) return hit_illegal_ ? Stop::kIllegal : Stop::kHandlerStop;
    }
    return Stop::kBudget;
  }

 private:
  mem::MainMemory* memory_;
  std::array<Word, kNumRegs> regs_{};
  Addr pc_ = 0;
  u64 executed_ = 0;
  bool hit_illegal_ = false;
  SyscallHandler on_syscall_;
};

}  // namespace rse::isa
