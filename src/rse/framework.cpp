#include "rse/framework.hpp"

#include <algorithm>
#include <cassert>

#include "common/error.hpp"

namespace rse::engine {

Framework::Framework(mem::MainMemory& memory, mem::BusArbiter& bus, u32 ruu_entries)
    : memory_(&memory),
      ioq_(ruu_entries),
      mau_(memory, bus),
      alarm_counts_(ruu_entries, 0),
      free_high_since_(ruu_entries, 0) {}

void Framework::add_module(std::unique_ptr<Module> module) {
  if (!events_.empty()) {
    throw SimError(std::string("Framework::add_module: events are pending, which module '") +
                   module->name() + "' would never receive");
  }
  const auto id = static_cast<std::size_t>(module->id());
  assert(id < by_id_.size() && by_id_[id] == nullptr);
  by_id_[id] = module.get();
  const HookSet hooks = module->hooks();
  for (unsigned hook = 0; hook < kNumHooks; ++hook) {
    if (hooks.has(static_cast<Hook>(hook))) subscribers_[hook].push_back(module.get());
  }
  modules_.push_back(std::move(module));
}

Module* Framework::module(isa::ModuleId id) const {
  const auto index = static_cast<std::size_t>(id);
  return index < by_id_.size() ? by_id_[index] : nullptr;
}

void Framework::set_selfcheck_config(SelfCheckConfig config) {
  selfcheck_ = config;
  alarm_over_threshold_ =
      std::any_of(alarm_counts_.begin(), alarm_counts_.end(),
                  [&](u32 count) { return count > selfcheck_.alarm_threshold; });
}

void Framework::on_dispatch(const DispatchInfo& info, Cycle now) {
  ++stats_.dispatches_seen;
  const bool is_chk = info.instr.op == isa::Op::kChk;
  if (is_chk) ++stats_.chk_instructions;
  // The enable/disable unit acts as soon as the CHECK reaches the framework:
  // dispatch is in program order, so CHECKs following an enable are already
  // routed to the (now live) module.  Wrong-path CHECKs never take effect.
  if (is_chk && info.instr.chk_module == isa::ModuleId::kFramework && !info.wrong_path) {
    handle_frame_chk(info.instr, now);
  }
  // A CHECK only owes a result when it is addressed to a live (registered
  // and enabled) module; otherwise the enable/disable unit substitutes the
  // constant (checkValid=1, check=0) output.
  bool pending = false;
  if (is_chk && info.instr.chk_module != isa::ModuleId::kFramework) {
    Module* target = module(info.instr.chk_module);
    pending = target != nullptr && target->enabled();
  }
  ioq_.allocate(info.tag, pending, is_chk ? info.instr.chk_module : isa::ModuleId::kFramework,
                now);
  if (!subscribers(Hook::kDispatch).empty()) {
    events_.push(Event::Kind::kDispatch, now + 1).dispatch = info;
  }
}

Cycle Framework::on_commit(const CommitInfo& info, Cycle now) {
  ++stats_.commits_seen;
  Cycle stall = 0;
  const bool is_store = info.instr.op_class() == isa::OpClass::kStore;
  if (is_store) {
    // SavePage-style checks must intercept the store before it writes
    // memory, so store commits are delivered synchronously.
    for (Module* module : subscribers(Hook::kStoreCommit)) {
      if (module->enabled()) stall += module->on_store_commit(info, now);
    }
  }
  if (!subscribers(Hook::kCommit).empty()) {
    events_.push(Event::Kind::kCommit, now + 1).commit = info;
  }
  // The IOQ entry is freed as the commit signal removes the instruction's
  // data from the input queues (section 3.1).
  ioq_.free(info.tag);
  return stall;
}

void Framework::on_squash(const InstrTag& tag, Cycle now) {
  ++stats_.squashes_seen;
  ioq_.free(tag);
  if (!subscribers(Hook::kSquash).empty()) {
    events_.push(Event::Kind::kSquash, now + 1).squash = tag;
  }
}

void Framework::module_write_ioq(Module& module, const InstrTag& tag, bool check_valid,
                                 bool check, Cycle now) {
  switch (module.fault_mode()) {
    case ModuleFaultMode::kNone:
      break;
    case ModuleFaultMode::kNoProgress:
      return;  // the module never produces a result
    case ModuleFaultMode::kFalseAlarm:
      check_valid = true;
      check = true;
      break;
    case ModuleFaultMode::kFalseNegative:
      check_valid = true;
      check = false;
      break;
  }
  ioq_.module_write(tag, check_valid, check, now, safe_mode_);
}

void Framework::on_check_error(u32 slot, Cycle now) {
  (void)now;
  ++stats_.errors_reported;
  const Ioq::Entry& entry = ioq_.entry(slot);
  if (entry.allocated) {
    ++stats_.errors_by_module[static_cast<unsigned>(entry.module)];
  }
  if (!safe_mode_ && slot < alarm_counts_.size() &&
      ++alarm_counts_[slot] > selfcheck_.alarm_threshold) {
    alarm_over_threshold_ = true;
  }
}

void Framework::handle_frame_chk(const isa::Instr& instr, Cycle now) {
  (void)now;
  const auto target = static_cast<isa::ModuleId>(instr.chk_imm & 0x7);
  Module* m = module(target);
  if (!m) return;
  if (instr.chk_op == kFrameOpEnableModule) {
    m->set_enabled(true);
    ++stats_.module_enables;
  } else if (instr.chk_op == kFrameOpDisableModule) {
    // The enable/disable unit desensitizes the module's path to the IOQ;
    // disabled modules are never routed events nor ticked.
    m->set_enabled(false);
    ++stats_.module_disables;
  }
}

void Framework::deliver(const Event& event, Cycle now) {
  switch (event.kind) {
    case Event::Kind::kDispatch:
      for (Module* module : subscribers(Hook::kDispatch)) {
        if (module->enabled()) module->on_dispatch(event.dispatch, now);
      }
      break;
    case Event::Kind::kExecute:
      for (Module* module : subscribers(Hook::kExecute)) {
        if (module->enabled()) module->on_execute(event.execute, now);
      }
      break;
    case Event::Kind::kCommit:
      for (Module* module : subscribers(Hook::kCommit)) {
        if (module->enabled()) module->on_commit(event.commit, now);
      }
      break;
    case Event::Kind::kSquash:
      for (Module* module : subscribers(Hook::kSquash)) {
        if (module->enabled()) module->on_squash(event.squash, now);
      }
      break;
  }
}

void Framework::tick(Cycle now) {
  while (!events_.empty() && events_.front().visible_from <= now) {
    // Delivered from a copy, so a handler may push without invalidating it.
    const Event event = events_.front();
    events_.pop();
    deliver(event, now);
  }
  mau_.tick(now);
  for (Module* module : subscribers(Hook::kTick)) {
    if (module->enabled()) module->tick(now);
  }
  if (selfcheck_.enabled && !safe_mode_ && selfcheck_due(now)) run_selfcheck(now);
}

bool Framework::selfcheck_due(Cycle now) const {
  // run_selfcheck can trip, or change the watchdog's own state, only on a
  // tick where one of these holds; on any other tick it would do nothing.
  const Cycle timeout = selfcheck_.watchdog_timeout;
  const Cycle unanswered = ioq_.unanswered_since();
  return now - alarm_window_start_ > timeout  // the alarm window expires
         || alarm_over_threshold_             // a false-alarm storm
         || (unanswered != Ioq::kNoneUnanswered && now - unanswered > timeout)  // no progress
         || ioq_.stuck_fault_injected();  // a free entry may read high (stuck-at 1)
}

void Framework::run_selfcheck(Cycle now) {
  // False-alarm storm: reset the per-entry counters each watchdog window.
  if (now - alarm_window_start_ > selfcheck_.watchdog_timeout) {
    alarm_window_start_ = now;
    for (u32& count : alarm_counts_) count = 0;
    alarm_over_threshold_ = false;
  }
  for (u32 slot = 0; slot < ioq_.size(); ++slot) {
    if (alarm_counts_[slot] > selfcheck_.alarm_threshold) {
      trip_selfcheck(SelfCheckVerdict::kFalseAlarmStorm, now);
      return;
    }
    const Ioq::Entry& entry = ioq_.entry(slot);
    const Ioq::CheckBits observed = ioq_.observed(slot);
    if (entry.allocated && entry.pending_check && !observed.check_valid) {
      // Missing 0->1 transition: module not making progress (or checkValid
      // stuck at 0, which is indistinguishable and handled the same way).
      if (now - entry.allocated_at > selfcheck_.watchdog_timeout) {
        trip_selfcheck(SelfCheckVerdict::kNoProgress, now);
        return;
      }
    }
    if (!entry.allocated && (observed.check_valid || observed.check)) {
      // A free entry should read as 0; a missing 1->0 transition over the
      // watchdog interval means a stuck-at-1 output bit.
      if (free_high_since_[slot] == 0) free_high_since_[slot] = now;
      if (now - free_high_since_[slot] > selfcheck_.watchdog_timeout) {
        trip_selfcheck(SelfCheckVerdict::kStuckAt1, now);
        return;
      }
    } else {
      free_high_since_[slot] = 0;
    }
  }
  // Nothing tripped: the entries that can time out next are the ones still
  // unanswered now.
  ioq_.refresh_unanswered();
}

void Framework::trip_selfcheck(SelfCheckVerdict verdict, Cycle now) {
  safe_mode_ = true;
  verdict_ = verdict;
  ++stats_.selfcheck_trips;
  if (stats_.selfcheck_trip_cycle == 0) stats_.selfcheck_trip_cycle = now;
  // Decoupling: every allocated entry is released to the pipeline with the
  // constant (checkValid=1, check=0) output.
  for (u32 slot = 0; slot < ioq_.size(); ++slot) {
    const Ioq::Entry& entry = ioq_.entry(slot);
    if (entry.allocated && entry.pending_check) {
      ioq_.module_write(entry.tag, /*check_valid=*/true, /*check=*/false, now,
                        /*safe_mode=*/true);
    }
  }
  if (selfcheck_observer_) selfcheck_observer_(verdict, now);
}

void Framework::recouple() {
  safe_mode_ = false;
  verdict_ = SelfCheckVerdict::kOk;
  alarm_window_start_ = 0;
  for (u32& count : alarm_counts_) count = 0;
  alarm_over_threshold_ = false;
  for (Cycle& since : free_high_since_) since = 0;
}

void Framework::reset() {
  events_.clear();
  ioq_.free_all();
  for (auto& module : modules_) module->reset();
  recouple();
}

}  // namespace rse::engine
