#include "exec/block_cache.hpp"

#include <algorithm>

#include "isa/semantics.hpp"

namespace rse::exec {

const DecodedBlock* BlockCache::lookup(Addr pc) {
  ++stats_.lookups;
  auto it = blocks_.find(pc);
  if (it != blocks_.end()) return &it->second;

  ++stats_.decodes;
  DecodedBlock block;
  block.start = pc;
  const u32 cap = chaining_ ? kMaxSuperblockInstrs : kMaxBlockInstrs;
  std::unordered_set<Addr> visited;
  Addr at = pc;
  while (block.instrs.size() < cap) {
    if (chaining_) {
      // Loop guard: a superblock never revisits a PC.  A followed jump back
      // into the superblock exits to the dispatcher at run time (the
      // continuity check fails), which re-enters through the cache at that
      // target's own block.
      if (!visited.insert(at).second) break;
      // Sequential decode must not run off the end of text into data.
      if (text_hi_ != 0 && !in_text(at)) break;
      if (at != pc && leaders_.count(at) != 0) block.chained = true;
    } else if (at != pc && leaders_.count(at) != 0) {
      // Stop before a foreign leader: execution entering at that leader must
      // find its own block, and two overlapping decodings of the same bytes
      // would double the invalidation bookkeeping.
      break;
    }
    const isa::Instr in = isa::decode(memory_->read_u32(at));
    block.instrs.push_back(in);
    block.pcs.push_back(at);
    // The engine decides whether to execute terminators (control flow) or
    // stop on them (syscall/illegal) — they end decode and stay in the block.
    if (in.op == isa::Op::kSyscall || in.op == isa::Op::kInvalid) break;
    if (!in.is_control()) {
      at += 4;
      continue;
    }
    if (!chaining_) break;
    // Chain only across statically-known single-successor transfers; a
    // conditional branch or register-indirect jump ends the superblock.
    if (in.op != isa::Op::kJ && in.op != isa::Op::kJal) break;
    const Addr target = isa::jump_target(in);
    if (!in_text(target)) break;
    block.chained = true;
    at = target;
  }
  if (block.chained) ++stats_.superblocks;
  index_block(block);
  auto [pos, inserted] = blocks_.emplace(pc, std::move(block));
  (void)inserted;
  return &pos->second;
}

void BlockCache::index_block(const DecodedBlock& block) {
  // Register the page of every constituent instruction, not just the
  // leader's contiguous span: a superblock's chained tail can sit on pages
  // far from its start, and a store there must still tear the whole
  // superblock down.  Duplicate (page, start) entries from page-straddling
  // chains are harmless — invalidate() erases by block key.
  u32 prev = ~0u;
  for (const Addr at : block.pcs) {
    const u32 page = mem::page_of(at);
    if (page == prev) continue;
    page_index_[page].push_back(block.start);
    prev = page;
  }
}

void BlockCache::invalidate(Addr addr, u32 size) {
  const u32 first = mem::page_of(addr);
  const u32 last = mem::page_of(addr + (size ? size - 1 : 0));
  for (u32 page = first; page <= last; ++page) {
    auto it = page_index_.find(page);
    if (it == page_index_.end()) continue;
    for (const Addr start : it->second) {
      if (blocks_.erase(start) != 0) {
        ++stats_.invalidations;
        ++epoch_;  // orphan every threaded-dispatch link into erased blocks
      }
    }
    // Erased blocks may span other pages; their stale entries there are
    // harmless (erase of a missing key) and vanish on the next decode.
    page_index_.erase(it);
  }
}

void BlockCache::clear() {
  blocks_.clear();
  page_index_.clear();
  ++epoch_;  // links in any surviving DecodedBlock copies are now stale
}

}  // namespace rse::exec
