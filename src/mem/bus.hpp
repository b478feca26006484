// Off-chip memory bus timing model and arbiter.
//
// Memory access is pipelined (paper section 5.2): the first chunk of a
// transfer arrives after `first_chunk_cycles`, each subsequent chunk after
// `inter_chunk_cycles`.  The baseline machine uses 18/2; with the RSE present
// the arbiter between the pipeline and the MAU adds one cycle to each,
// giving 19/3 — exactly the change the paper simulates.
//
// The arbiter serializes transfers on the single bus.  Requests from the main
// pipeline (cache refills/writebacks) take priority over MAU requests issued
// in the same cycle; this falls out of the simulation order (the core is
// stepped before the RSE each cycle) and is additionally asserted by the
// per-source accounting kept here.
#pragma once

#include "common/types.hpp"

namespace rse::mem {

struct BusTiming {
  u32 first_chunk_cycles = 18;
  u32 inter_chunk_cycles = 2;
  u32 chunk_bytes = 8;

  /// Latency of transferring `bytes` (>=1) bytes.
  Cycle transfer_cycles(u32 bytes) const {
    const u32 chunks = (bytes + chunk_bytes - 1) / chunk_bytes;
    return first_chunk_cycles + static_cast<Cycle>(chunks == 0 ? 0 : chunks - 1) * inter_chunk_cycles;
  }

  bool operator==(const BusTiming&) const = default;
};

enum class BusSource : u8 { kPipeline, kMau };

struct BusStats {
  u64 pipeline_transfers = 0;
  u64 mau_transfers = 0;
  u64 pipeline_wait_cycles = 0;  // cycles pipeline requests spent queued behind the bus
  u64 mau_wait_cycles = 0;
  u64 busy_cycles = 0;  // total cycles the bus spent transferring
};

class BusArbiter {
 public:
  explicit BusArbiter(BusTiming timing) : timing_(timing) {}

  const BusTiming& timing() const { return timing_; }

  /// Request a transfer of `bytes` at cycle `now`; returns the cycle at which
  /// the transfer completes.  The bus is occupied until then.
  Cycle request(Cycle now, u32 bytes, BusSource source) {
    const Cycle start = now > busy_until_ ? now : busy_until_;
    const Cycle wait = start - now;
    const Cycle latency = timing_.transfer_cycles(bytes);
    busy_until_ = start + latency;
    stats_.busy_cycles += latency;
    if (source == BusSource::kPipeline) {
      ++stats_.pipeline_transfers;
      stats_.pipeline_wait_cycles += wait;
    } else {
      ++stats_.mau_transfers;
      stats_.mau_wait_cycles += wait;
    }
    return busy_until_;
  }

  Cycle busy_until() const { return busy_until_; }
  const BusStats& stats() const { return stats_; }

  /// Snapshot hook: occupancy horizon plus statistics.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(busy_until_);
    ar.field(stats_);
  }

 private:
  BusTiming timing_;
  Cycle busy_until_ = 0;
  BusStats stats_;
};

}  // namespace rse::mem
