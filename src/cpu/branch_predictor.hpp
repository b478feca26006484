// Branch prediction for the fetch engine: a bimodal 2-bit-counter table for
// conditional branches, a direct-mapped BTB for indirect jumps, and a small
// return-address stack — the predictor family SimpleScalar's sim-outorder
// ships with.
#pragma once

#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace rse::cpu {

struct PredictorConfig {
  u32 bimodal_entries = 2048;  // 2-bit counters
  u32 btb_entries = 256;       // direct-mapped PC -> target
  u32 ras_entries = 8;

  bool operator==(const PredictorConfig&) const = default;
};

struct PredictorStats {
  u64 cond_lookups = 0;
  u64 cond_mispredicts = 0;
  u64 indirect_lookups = 0;
  u64 indirect_mispredicts = 0;
};

class BranchPredictor {
 public:
  explicit BranchPredictor(const PredictorConfig& config)
      : config_(config),
        counters_(config.bimodal_entries, 2),  // weakly taken
        btb_(config.btb_entries) {
    if (!is_pow2(config.bimodal_entries) || !is_pow2(config.btb_entries)) {
      throw ConfigError("predictor table sizes must be powers of two");
    }
    ras_.reserve(config.ras_entries);
  }

  /// Predict a conditional branch at `pc`.
  bool predict_taken(Addr pc) {
    ++stats_.cond_lookups;
    return counters_[index(pc, config_.bimodal_entries)] >= 2;
  }

  /// Train the bimodal counter with the resolved outcome.
  void update_cond(Addr pc, bool taken, bool mispredicted) {
    u8& counter = counters_[index(pc, config_.bimodal_entries)];
    if (taken && counter < 3) ++counter;
    if (!taken && counter > 0) --counter;
    if (mispredicted) ++stats_.cond_mispredicts;
  }

  /// Predict the target of an indirect jump (jr/jalr).  Returns 0 if the BTB
  /// has no entry, in which case fetch falls through (and will mispredict).
  Addr predict_indirect(Addr pc) {
    ++stats_.indirect_lookups;
    const BtbEntry& entry = btb_[index(pc, config_.btb_entries)];
    return (entry.valid && entry.pc == pc) ? entry.target : 0;
  }

  void update_indirect(Addr pc, Addr target, bool mispredicted) {
    BtbEntry& entry = btb_[index(pc, config_.btb_entries)];
    entry.valid = true;
    entry.pc = pc;
    entry.target = target;
    if (mispredicted) ++stats_.indirect_mispredicts;
  }

  // Return-address stack, updated speculatively at fetch.
  void ras_push(Addr return_pc) {
    if (ras_.size() == config_.ras_entries) ras_.erase(ras_.begin());
    ras_.push_back(return_pc);
  }
  Addr ras_pop() {
    if (ras_.empty()) return 0;
    const Addr top = ras_.back();
    ras_.pop_back();
    return top;
  }

  const PredictorStats& stats() const { return stats_; }

  /// Snapshot hook: counters, BTB, return-address stack and statistics.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(counters_);
    ar.field(btb_);
    ar.field(ras_);
    ar.field(stats_);
  }

 private:
  struct BtbEntry {
    bool valid = false;
    Addr pc = 0;
    Addr target = 0;

    /// Snapshot hook, field by field: the struct has padding.
    template <class Ar>
    void serialize_state(Ar& ar) {
      ar.field(valid);
      ar.field(pc);
      ar.field(target);
    }
  };

  static u32 index(Addr pc, u32 entries) { return (pc >> 2) & (entries - 1); }

  PredictorConfig config_;
  std::vector<u8> counters_;
  std::vector<BtbEntry> btb_;
  std::vector<Addr> ras_;
  PredictorStats stats_;
};

}  // namespace rse::cpu
