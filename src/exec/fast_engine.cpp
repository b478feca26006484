#include "exec/fast_engine.hpp"

#include <cstring>

#include "isa/semantics.hpp"

namespace rse::exec {

FastEngine::Stop FastEngine::run_until(u64 target, CommitSink* sink) {
  // One loop, instantiated twice.  A report in the single loop, even behind
  // a branch nobody takes, cost the unobserved loop its registers.
  return sink != nullptr ? run<true>(target, sink) : run<false>(target, nullptr);
}

template <bool kReport>
FastEngine::Stop FastEngine::run(u64 target, CommitSink* sink) {
  // isa::execute's view of the fast engine: registers in place, memory
  // through the direct-memory TLB.  A store landing in the text segment
  // drops overlapping cached blocks — possibly the one being executed — so
  // it flags the inner loop to end before touching `block` again.  The last
  // access's address and value are kept for the commit record.
  struct Adapter {
    FastEngine& self;
    bool invalidated = false;
    Addr eff_addr = 0;
    Word mem_value = 0;
    Word reg(u8 r) const { return self.regs_[r]; }
    void write(u8 r, Word value) { self.regs_[r] = value; }
    Word load(Addr ea, u32 size) {
      eff_addr = ea;
      Word value = 0;
      std::memcpy(&value, self.data_host(ea), size);
      return value;
    }
    void loaded(Word value) { mem_value = value; }
    void store(Addr ea, u32 size, Word value) {
      eff_addr = ea;
      mem_value = value;
      std::memcpy(self.data_host(ea), &value, size);
      if (ea < self.text_hi_ && ea + size > self.text_lo_) {
        self.cache_->invalidate(ea, size);
        invalidated = true;
      }
    }
    void chk() { ++self.chks_executed_; }
  };

  // Threaded dispatch (chaining mode): block transitions stay inside the
  // engine.  A back-edge to the current block's own start re-enters it
  // directly, and each block carries an epoch-stamped link to its last
  // observed successor, so steady-state execution touches the hash map only
  // on cold transitions.  With chaining off the dispatcher is the plain
  // lookup-per-block oracle the differential suites compare against.
  const bool threaded = cache_->chaining();
  const DecodedBlock* block = nullptr;
  while (executed_ < target) {
    if (block == nullptr) {
      if (text_hi_ != 0 && (pc_ < text_lo_ || pc_ >= text_hi_)) return Stop::kIllegal;
      block = cache_->lookup(pc_);
    }
    const std::size_t count = block->instrs.size();
    if (count == 0) return Stop::kIllegal;  // decode refused (outside text)

    Addr pc = block->start;
    std::size_t i = 0;
    Adapter adapter{*this};
    for (;;) {
      if (executed_ == target) {
        pc_ = pc;
        return Stop::kBoundary;
      }
      const isa::Instr in = block->instrs[i];
      const isa::Step step = isa::execute(in, pc, adapter);
      if (step.trap != isa::Trap::kNone) {
        pc_ = pc;
        return step.trap == isa::Trap::kSyscall ? Stop::kSyscall : Stop::kIllegal;
      }
      if constexpr (kReport) {
        const bool mem = isa::access_size(in.op) != 0;
        sink->commit(engine::CommitInfo{{}, pc, in, kNoThread, mem ? adapter.eff_addr : 0,
                                        mem ? adapter.mem_value : 0});
      }

      ++executed_;
      regs_[0] = 0;
      if (adapter.invalidated) {
        // `block` may be gone; re-enter via the cache.
        pc_ = step.next;
        break;
      }
      ++i;
      // Superblock continuity needs no PC probe: decode terminates a block
      // at every instruction whose successor is dynamic (conditional
      // branches, jr/jalr, syscalls), so every non-terminator entry was
      // decoded at exactly the PC execution goes to — the straight-line
      // neighbor or a followed j/jal target (block->pcs[i] == next by
      // construction; the differential suites pin this).
      if (i < count) {
        pc = step.next;
        continue;
      }
      pc_ = step.next;
      break;
    }

    // Block transition.  pc_ holds the next leader.
    if (adapter.invalidated || !threaded) {
      block = nullptr;  // re-enter via the cache (and re-check the range)
      continue;
    }
    if (pc_ == block->start) continue;  // hot loop back-edge: same block
    const u64 epoch = cache_->epoch();
    if (block->link_epoch[0] == epoch && block->link_pc[0] == pc_) {
      block = block->link[0];
      continue;
    }
    if (block->link_epoch[1] == epoch && block->link_pc[1] == pc_) {
      block = block->link[1];
      continue;
    }
    // Cold transition: look the successor up once and patch a link so the
    // next time this block exits to the same leader stays off the hash map.
    if (text_hi_ != 0 && (pc_ < text_lo_ || pc_ >= text_hi_)) return Stop::kIllegal;
    const DecodedBlock* succ = cache_->lookup(pc_);
    const u8 slot = block->link_victim;
    block->link_pc[slot] = pc_;
    block->link[slot] = succ;
    block->link_epoch[slot] = epoch;
    block->link_victim = slot ^ 1;
    block = succ;
  }
  return Stop::kBoundary;
}

}  // namespace rse::exec
