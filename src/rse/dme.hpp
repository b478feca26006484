// Divergent multi-version execution (DME) on top of MLR layout
// decorrelation (docs/security.md).
//
// Two variants of the same guest run under distinct MLR seeds, so every
// randomized region (shlib, heap, stack) lives at a different absolute
// address in each.  Both committed-instruction traces are *canonicalized* —
// addresses and values inside a randomized region are rebased onto synthetic
// fixed region bases — and compared record by record.  A correct program is
// layout-transparent: its canonical traces agree exactly, so the first
// mismatched record is evidence that a fault or an attack made execution
// depend on the concrete layout.  The campaign classifier reports that as
// `detected_dme`.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/program.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"

namespace rse::dme {

// Synthetic canonical bases the randomized regions are rebased onto.  The
// values are shared by every variant (only canonical forms are ever compared
// against canonical forms) and sit far above any real guest address so a
// canonicalized word can never collide with a raw one by accident.
inline constexpr Addr kCanonShlibBase = 0x9000'0000;
inline constexpr Addr kCanonHeapBase = 0xA000'0000;
inline constexpr Addr kCanonStackBase = 0xB000'0000;

/// Spans of the heap and stack regions the canonicalizer recognizes.  Wide
/// envelopes are fine: both variants use the same spans relative to their
/// own bases, so a word is either in-region for both or for neither.
inline constexpr Addr kStackSpan = 0x0020'0000;  // thread stacks below base
inline constexpr Addr kHeapSpan = 0x0400'0000;   // sbrk growth above base
inline constexpr Addr kShlibSpan = 0x0040'0000;

/// Per-variant relocation map: the loader's (possibly randomized) region
/// bases, captured after GuestOs::load().  canonicalize() rebases an address
/// through it; addresses outside every region (text, static data) are
/// position-fixed and pass through unchanged.
struct RegionMap {
  Addr stack_base = 0;
  Addr heap_base = 0;
  Addr shlib_base = 0;

  static RegionMap of(const os::GuestOs& guest) {
    return RegionMap{guest.stack_base(), guest.heap_base(), guest.shlib_base()};
  }

  Addr canonicalize(Addr a) const {
    // Stack wins over heap wins over shlib (regions never overlap in
    // practice; the order makes the map total regardless).
    if (a >= stack_base - kStackSpan && a < stack_base + 64) {
      return kCanonStackBase + (a - (stack_base - kStackSpan));
    }
    if (a >= heap_base && a < heap_base + kHeapSpan) {
      return kCanonHeapBase + (a - heap_base);
    }
    if (a >= shlib_base && a < shlib_base + kShlibSpan) {
      return kCanonShlibBase + (a - shlib_base);
    }
    return a;
  }
};

inline constexpr u8 kFlagMem = 1;
inline constexpr u8 kFlagStore = 2;

/// One committed instruction in canonical form.  Raw and canonical forms of
/// the effective address and memory value are both kept: a record matches
/// when either form agrees (a raw match means the word was layout-fixed; a
/// canonical match means it was layout-relative in both variants).  Layout-
/// dependent corruption cannot satisfy either form forever — it surfaces at
/// the first consuming load or control transfer.
struct TraceRecord {
  Addr pc = 0;
  Word raw = 0;  // fetched instruction word
  u8 flags = 0;  // kFlagMem | kFlagStore
  Addr ea = 0;
  Word value = 0;
  Addr ea_canon = 0;
  Word value_canon = 0;

  bool matches(const TraceRecord& o) const {
    if (pc != o.pc || raw != o.raw || flags != o.flags) return false;
    if (!(flags & kFlagMem)) return true;
    if (ea != o.ea && ea_canon != o.ea_canon) return false;
    return value == o.value || value_canon == o.value_canon;
  }
};

struct CanonicalTrace {
  std::vector<TraceRecord> records;
  bool truncated = false;  // hit the record cap; comparison stops there
};

/// Per-run record cap (~56 MB of records).  Campaign DME runs use short
/// workloads; the cap keeps a runaway variant from exhausting memory.
inline constexpr u64 kMaxRecords = 2'000'000;

/// The record of one committed instruction, as the core's commit observer
/// delivers it (from either engine).
inline TraceRecord make_record(const RegionMap& map, const engine::CommitInfo& info) {
  const isa::OpClass cls = info.instr.op_class();
  const bool is_store = cls == isa::OpClass::kStore;
  const bool is_mem = is_store || cls == isa::OpClass::kLoad;
  TraceRecord r;
  r.pc = info.pc;
  r.raw = info.instr.raw;
  r.flags = static_cast<u8>((is_mem ? kFlagMem : 0) | (is_store ? kFlagStore : 0));
  if (is_mem) {
    r.ea = info.eff_addr;
    r.value = info.mem_value;
    r.ea_canon = map.canonicalize(info.eff_addr);
    r.value_canon = static_cast<Word>(map.canonicalize(info.mem_value));
  }
  return r;
}

/// The DME comparator: feed variant-A records as they commit, against the
/// reference variant's recorded trace.  Every faulty run, the campaign's
/// fault-free baseline and `rse_run --dme` are judged by it.  The first
/// mismatch is terminal — everything after a divergence point is noise, so
/// `divergences()` is 0 or 1 and `first_divergence()` is the canonical-trace
/// position where the traces split.  The checker keeps a pointer to the
/// reference, so it must not outlive it.
class TraceChecker {
 public:
  TraceChecker(const CanonicalTrace* reference, RegionMap own)
      : ref_(reference), map_(own) {}

  void push(const engine::CommitInfo& info) {
    if (diverged_ || pos_ >= kMaxRecords) return;
    if (pos_ >= ref_->records.size()) {
      // Ran past the reference.  A truncated reference proves nothing;
      // otherwise the run executed instructions the reference never did.
      if (!ref_->truncated) mark_divergence();
      return;
    }
    const TraceRecord rec = make_record(map_, info);
    if (!rec.matches(ref_->records[pos_])) {
      mark_divergence();
      return;
    }
    ++pos_;
  }

  /// Call when the run finished cleanly (guest exit, no crash/host trap): a
  /// reference suffix the run never reached is then itself a divergence.
  /// Crashed or hung runs skip this — their truncation is explained by the
  /// crash, and charging it to DME would misclassify every crash.
  void finish_clean() {
    if (diverged_ || ref_->truncated || pos_ >= kMaxRecords) return;
    if (pos_ < ref_->records.size()) mark_divergence();
  }

  /// Fast-forwarded runs: the verified fault-free prefix is bit-identical
  /// to the golden run by construction, so the comparator starts at the
  /// boundary's functional position instead of replaying the prefix.
  void set_position(u64 pos) { pos_ = pos; }

  u64 divergences() const { return diverged_ ? 1 : 0; }
  u64 first_divergence() const { return first_divergence_; }
  u64 position() const { return pos_; }

 private:
  void mark_divergence() {
    diverged_ = true;
    first_divergence_ = pos_;
  }

  const CanonicalTrace* ref_;
  RegionMap map_;
  u64 pos_ = 0;
  bool diverged_ = false;
  u64 first_divergence_ = ~u64{0};
};

/// Make a machine/os configuration a DME variant: layout randomization on
/// under MLR seed `mlr_seed` (MLR lives in the framework).  The campaign's
/// variant A is its setup under dme_seed_a, variant B the same setup under
/// dme_seed_b.
inline void make_variant(os::MachineConfig& machine_config, os::OsConfig& os_config,
                         u64 mlr_seed) {
  machine_config.framework_present = true;
  machine_config.mlr.seed = mlr_seed;
  os_config.randomize_layout = true;
}

/// Run a booted, not yet started variant fault-free to its end and return
/// its canonical trace, recorded on the core's commit observer.  The run
/// always goes through the exec/ fast engine (FastSession::run_to_end),
/// which reports to the same observer and bails into the cycle-accurate
/// core when it must; the recorded stream is the committed-instruction
/// stream either way, which the differential suite pins.  Returns with no
/// commit observer installed on the core.
CanonicalTrace record_trace(os::GuestOs& guest, const isa::Program& program);

/// Run a booted, not yet started fault-free variant to its end — fast with
/// a bail to the core as record_trace does, or with `prefer_fast` false on
/// the cycle-accurate core alone — through a TraceChecker against
/// `reference`, then finish_clean(): a fault-free variant's trace ends where
/// its program ends.  The checker keeps a pointer to `reference`, so it must
/// not outlive it.  Returns with no commit observer installed on the core.
TraceChecker check_trace(os::GuestOs& guest, const isa::Program& program,
                         const CanonicalTrace& reference, bool prefer_fast = true);

}  // namespace rse::dme
