// Adaptive Heartbeat Monitor (paper section 4.4, Figure 7).
//
// Structures: ENTITY_IDX (a CAM mapping entity IDs — processes, threads, or
// the OS — to slots), COUNTER_RAM (per-entity heartbeat counters incremented
// by "Increment Counter Value" CHECK instructions), and TIMEOUT_MEM (dynamic
// per-entity timeout values).  The Adaptive Timeout Monitor samples the
// counters at a fixed interval and recomputes each timeout with an adaptive
// algorithm.  The paper omits its algorithm; ours is a Jacobson-style
// mean + k * mean-deviation estimator over observed inter-beat gaps,
// clamped below by a floor — documented here as a substitution.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "rse/framework.hpp"
#include "rse/module.hpp"

namespace rse::modules {

// CHECK operations for the AHBM.
inline constexpr u8 kAhbmOpRegister = 3;    // param = entity id
inline constexpr u8 kAhbmOpBeat = 4;        // param = entity id
inline constexpr u8 kAhbmOpUnregister = 5;  // param = entity id

struct AhbmConfig {
  u32 entity_slots = 32;        // CAM capacity
  Cycle sample_interval = 2048;  // counter sampling period
  u32 deviation_multiplier = 4;  // timeout = mean + k * deviation
  Cycle min_timeout = 4096;      // floor (at least two sample periods)
  bool adaptive = true;          // false = fixed timeout (ablation baseline)
  Cycle fixed_timeout = 65536;   // used when !adaptive

  bool operator==(const AhbmConfig&) const = default;
};

struct AhbmStats {
  u64 beats_received = 0;
  u64 registrations = 0;
  u64 hangs_declared = 0;
  u64 false_resumes = 0;  // entity beat again after being declared hung
};

class AhbmModule : public engine::Module {
 public:
  /// Called when an entity misses its (adaptive) timeout.
  using HangHandler = std::function<void(u32 entity, Cycle now, Cycle silence)>;

  AhbmModule(engine::Framework& framework, AhbmConfig config = {});

  isa::ModuleId id() const override { return isa::ModuleId::kAhbm; }
  const char* name() const override { return "AHBM"; }
  engine::HookSet hooks() const override { return {engine::Hook::kDispatch, engine::Hook::kTick}; }

  void set_hang_handler(HangHandler handler) { on_hang_ = std::move(handler); }

  void on_dispatch(const engine::DispatchInfo& info, Cycle now) override;
  void tick(Cycle now) override;
  void reset() override;

  // ---- host-side interface (the OS kernel-driver path of section 4.4) ----
  bool register_entity(u32 entity, Cycle now);
  void unregister_entity(u32 entity);
  void beat(u32 entity, Cycle now);

  /// Current timeout for an entity (for tests/benches); nullopt if unknown.
  std::optional<Cycle> timeout_of(u32 entity) const;

  const AhbmStats& stats() const { return stats_; }

  /// Snapshot hook: the entity CAM (counters, timeouts, estimator state)
  /// plus statistics.  The hang handler is reinstalled by the guest OS.
  template <class Ar>
  void serialize_state(Ar& ar) {
    serialize_base(ar);
    ar.field(stats_);
    ar.field(slots_);
    ar.field(next_sample_);
  }

 private:
  struct Slot {
    bool used = false;
    u32 entity = 0;        // ENTITY_IDX
    u64 counter = 0;       // COUNTER_RAM
    u64 sampled_counter = 0;
    Cycle last_change = 0;
    Cycle timeout = 0;     // TIMEOUT_MEM
    // adaptive estimator state
    double mean_gap = 0;
    double dev_gap = 0;
    bool seeded = false;
    bool hung = false;

    /// Snapshot hook, field by field: a struct that holds a double has no
    /// unique object representation, so it cannot be copied raw.
    template <class Ar>
    void serialize_state(Ar& ar) {
      ar.field(used);
      ar.field(entity);
      ar.field(counter);
      ar.field(sampled_counter);
      ar.field(last_change);
      ar.field(timeout);
      ar.field(mean_gap);
      ar.field(dev_gap);
      ar.field(seeded);
      ar.field(hung);
    }
  };

  Slot* find(u32 entity);

  AhbmConfig config_;
  AhbmStats stats_;
  HangHandler on_hang_;
  std::vector<Slot> slots_;
  Cycle next_sample_ = 0;
};

}  // namespace rse::modules
