#include "modules/icm/icm.hpp"

#include <algorithm>

namespace rse::modules {

IcmModule::IcmModule(engine::Framework& framework, IcmConfig config)
    : Module(framework), config_(config) {
  cache_.reserve(config_.cache_entries);
  mau_buffer_.resize(static_cast<std::size_t>(config_.fetch_block_words) * 4);
}

void IcmModule::register_checked_instruction(Addr pc, Word raw) {
  auto [it, inserted] = pc_to_checker_.try_emplace(pc, config_.checker_base + checker_next_);
  if (!inserted) {
    // Re-registration (e.g. reload): refresh the stored copy in place.
    fw_->memory().write_u32(it->second, raw);
    return;
  }
  checker_to_pc_[it->second] = pc;
  fw_->memory().write_u32(it->second, raw);
  checker_next_ += 4;
}

void IcmModule::clear_checker_memory() {
  pc_to_checker_.clear();
  checker_to_pc_.clear();
  checker_next_ = 0;
  cache_.clear();
}

bool IcmModule::cache_lookup(Addr pc, Word* out) {
  for (CacheEntry& entry : cache_) {
    if (entry.pc == pc) {
      entry.lru = ++cache_stamp_;
      *out = entry.word;
      return true;
    }
  }
  return false;
}

void IcmModule::cache_insert(Addr pc, Word word) {
  for (CacheEntry& entry : cache_) {
    if (entry.pc == pc) {
      entry.word = word;
      entry.lru = ++cache_stamp_;
      return;
    }
  }
  if (cache_.size() < config_.cache_entries) {
    cache_.push_back({pc, word, ++cache_stamp_});
    return;
  }
  auto victim = std::min_element(cache_.begin(), cache_.end(),
                                 [](const CacheEntry& a, const CacheEntry& b) { return a.lru < b.lru; });
  *victim = {pc, word, ++cache_stamp_};
}

void IcmModule::on_dispatch(const engine::DispatchInfo& info, Cycle now) {
  if (info.instr.op == isa::Op::kChk && info.instr.chk_module == isa::ModuleId::kIcm) {
    PendingCheck check;
    check.chk_tag = info.tag;
    check.state = PendingCheck::State::kAwaitInstr;
    pending_.push_back(check);
    return;
  }
  // The first non-CHK dispatch after an awaiting CHECK is the checked
  // instruction (the dispatch stream is in program order).
  for (PendingCheck& check : pending_) {
    if (check.state != PendingCheck::State::kAwaitInstr) continue;
    check.inst_tag = info.tag;
    check.pc = info.pc;
    check.pipeline_copy = info.instr.raw;
    check.acquired_at = now;
    ++stats_.checks_started;
    // ICM_IDLE stage: look up the redundant copy in the Icm_Cache.
    Word copy = 0;
    if (cache_lookup(info.pc, &copy)) {
      ++stats_.cache_hits;
      check.was_hit = true;
      if (stats_.first_hit_acquired == 0) stats_.first_hit_acquired = now;
      check.redundant_copy = copy;
      check.copy_ready = true;
      check.mismatch = copy != check.pipeline_copy;
      // copy available next cycle, comparison + IOQ write the cycle after
      check.write_at = now + 2;
      check.state = PendingCheck::State::kDone;
    } else {
      ++stats_.cache_misses;
      if (stats_.first_miss_acquired == 0) stats_.first_miss_acquired = now;
      check.state = PendingCheck::State::kMemWait;
    }
    break;
  }
}

void IcmModule::start_mem_request(PendingCheck& check, Cycle now) {
  auto it = pc_to_checker_.find(check.pc);
  if (it == pc_to_checker_.end()) {
    // No redundant copy registered: treat as unchecked (MATCH) so an
    // uninstrumented loader bug cannot wedge the pipeline.
    ++stats_.unknown_pc;
    check.mismatch = false;
    check.write_at = now + 1;
    check.state = PendingCheck::State::kDone;
    return;
  }
  // Fetch a naturally-aligned block of checked instructions: the contiguous
  // CheckerMemory placement gives spatial locality (section 4.3).
  const u32 block_bytes = config_.fetch_block_words * 4;
  mau_addr_ = it->second & ~(block_bytes - 1);
  mau_words_ = config_.fetch_block_words;
  mau_busy_ = true;
  const Addr pc = check.pc;
  fw_->mau().submit(isa::ModuleId::kIcm, mau_addr_, block_bytes, /*is_write=*/false,
                    mau_buffer_.data(), [this, pc](Cycle done_at) {
                      // Load the returned block into the Icm_Cache.
                      for (u32 w = 0; w < mau_words_; ++w) {
                        const Addr checker_addr = mau_addr_ + w * 4;
                        auto rit = checker_to_pc_.find(checker_addr);
                        if (rit == checker_to_pc_.end()) continue;
                        Word word;
                        std::memcpy(&word, mau_buffer_.data() + w * 4, 4);
                        cache_insert(rit->second, word);
                      }
                      mau_busy_ = false;
                      // Complete every pending check waiting on this block.
                      for (PendingCheck& waiting : pending_) {
                        if (waiting.state != PendingCheck::State::kMemWait) continue;
                        Word copy = 0;
                        if (!cache_lookup(waiting.pc, &copy)) continue;
                        waiting.redundant_copy = copy;
                        waiting.copy_ready = true;
                        waiting.mismatch = copy != waiting.pipeline_copy;
                        waiting.write_at = done_at + 2;  // compare, then broadcast
                        waiting.state = PendingCheck::State::kDone;
                      }
                      (void)pc;
                    });
}

void IcmModule::tick(Cycle now) {
  // Start at most one MAU request per cycle for the oldest waiting check.
  if (!mau_busy_) {
    for (PendingCheck& check : pending_) {
      if (check.state == PendingCheck::State::kMemWait) {
        start_mem_request(check, now);
        break;
      }
    }
  }
  // Retire completed checks whose IOQ write time has arrived.
  while (!pending_.empty()) {
    PendingCheck& front = pending_.front();
    if (front.state != PendingCheck::State::kDone || front.write_at > now) break;
    if (front.mismatch) ++stats_.mismatches;
    ++stats_.checks_completed;
    if (front.was_hit && stats_.first_hit_completed == 0 &&
        stats_.first_hit_acquired == front.acquired_at) {
      stats_.first_hit_completed = now;
    }
    if (!front.was_hit && stats_.first_miss_completed == 0 &&
        stats_.first_miss_acquired == front.acquired_at) {
      stats_.first_miss_completed = now;
    }
    fw_->module_write_ioq(*this, front.chk_tag, /*check_valid=*/true, front.mismatch, now);
    pending_.pop_front();
  }
}

void IcmModule::on_squash(const engine::InstrTag& tag, Cycle now) {
  (void)now;
  // Drop any pending check tied to the squashed CHECK or checked instruction.
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&tag](const PendingCheck& check) {
                                  return check.chk_tag == tag ||
                                         (check.state != PendingCheck::State::kAwaitInstr &&
                                          check.inst_tag == tag);
                                }),
                 pending_.end());
}

void IcmModule::reset() {
  // Uniform module-reset semantics: dynamic state and statistics clear;
  // load-time configuration (CheckerMemory contents) survives.
  pending_.clear();
  mau_busy_ = false;
  stats_ = IcmStats{};
}

}  // namespace rse::modules
