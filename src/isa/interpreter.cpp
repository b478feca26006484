#include "isa/interpreter.hpp"

#include "isa/semantics.hpp"

namespace rse::isa {

bool Interpreter::step() {
  // isa::execute's view of the interpreter: a flat register file over
  // MainMemory's accessors, with nothing buffered.
  struct Adapter {
    Interpreter& self;
    Word reg(u8 r) const { return self.regs_[r]; }
    void write(u8 r, Word value) { self.regs_[r] = value; }
    Word load(Addr ea, u32 size) const {
      if (size == 4) return self.memory_->read_u32(ea);
      if (size == 2) return self.memory_->read_u16(ea);
      return self.memory_->read_u8(ea);
    }
    void loaded(Word) {}
    void store(Addr ea, u32 size, Word value) {
      if (size == 4) self.memory_->write_u32(ea, value);
      else if (size == 2) self.memory_->write_u16(ea, static_cast<u16>(value));
      else self.memory_->write_u8(ea, static_cast<u8>(value));
    }
    void chk() {}  // architectural NOP in the golden model
  };

  Adapter adapter{*this};
  const Step step = execute(decode(memory_->read_u32(pc_)), pc_, adapter);
  hit_illegal_ = step.trap == Trap::kIllegal;
  if (hit_illegal_) return false;
  ++executed_;
  regs_[0] = 0;
  pc_ = step.next;
  if (step.trap == Trap::kSyscall) return on_syscall_ ? on_syscall_(*this) : false;
  return true;
}

}  // namespace rse::isa
