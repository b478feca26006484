// Simulated network front-end for the multithreaded-server experiments
// (paper section 5.4 / Figure 9).  Requests arrive on a jittered schedule;
// each accepted request requires one or more backend "I/O" waits (modeled by
// the kNetIo syscall latency) interleaved with guest-code compute before the
// reply completes it.
#pragma once

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace rse::os {

struct NetworkConfig {
  u32 total_requests = 100;
  Cycle interarrival = 1500;      // mean gap between request arrivals
  Cycle io_latency_mean = 9000;   // mean backend wait per kNetIo call
  u32 jitter_pct = 40;            // +/- jitter applied to both
  u64 seed = 7;

  /// Snapshot hook, field by field: the struct has padding.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(total_requests);
    ar.field(interarrival);
    ar.field(io_latency_mean);
    ar.field(jitter_pct);
    ar.field(seed);
  }
};

struct NetworkStats {
  u64 accepted = 0;
  u64 completed = 0;
  Cycle last_completion = 0;
};

class SimNetwork {
 public:
  explicit SimNetwork(const NetworkConfig& config = {}) { configure(config); }

  void configure(const NetworkConfig& config) {
    config_ = config;
    rng_ = Xorshift64(config.seed);
    arrivals_.clear();
    arrivals_.reserve(config.total_requests);
    Cycle at = 0;
    for (u32 i = 0; i < config.total_requests; ++i) {
      at += jittered(config.interarrival);
      arrivals_.push_back(at);
    }
    next_accept_ = 0;
    stats_ = NetworkStats{};
  }

  /// A request has arrived and is waiting to be accepted.
  bool has_ready(Cycle now) const {
    return next_accept_ < arrivals_.size() && arrivals_[next_accept_] <= now;
  }

  /// All requests have already been accepted.
  bool exhausted() const { return next_accept_ >= arrivals_.size(); }

  bool all_completed() const { return stats_.completed == config_.total_requests; }

  /// Cycle the next unaccepted request arrives (for accept blocking).
  Cycle next_arrival() const {
    return next_accept_ < arrivals_.size() ? arrivals_[next_accept_] : 0;
  }

  /// Accept the next request; precondition has_ready(now) or exhausted()==false.
  std::optional<u32> accept(Cycle now) {
    if (!has_ready(now)) return std::nullopt;
    ++stats_.accepted;
    return next_accept_++;
  }

  /// Backend I/O wait drawn for one kNetIo call.
  Cycle io_latency() { return jittered(config_.io_latency_mean); }

  void complete(u32 /*request*/, Cycle now) {
    ++stats_.completed;
    stats_.last_completion = now;
  }

  const NetworkConfig& config() const { return config_; }
  const NetworkStats& stats() const { return stats_; }

  /// Snapshot hook: arrival schedule position, RNG and statistics.
  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(config_);
    ar.field(rng_);
    ar.field(arrivals_);
    ar.field(next_accept_);
    ar.field(stats_);
  }

 private:
  Cycle jittered(Cycle mean) {
    if (config_.jitter_pct == 0 || mean == 0) return mean;
    const i64 span = static_cast<i64>(mean) * config_.jitter_pct / 100;
    return static_cast<Cycle>(static_cast<i64>(mean) + rng_.next_in(-span, span));
  }

  NetworkConfig config_;
  Xorshift64 rng_{7};
  std::vector<Cycle> arrivals_;
  u32 next_accept_ = 0;
  NetworkStats stats_;
};

}  // namespace rse::os
