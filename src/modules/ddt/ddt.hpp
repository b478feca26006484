// Data Dependency Tracker (paper section 4.2).
//
// Page-granularity tracking of inter-thread data dependencies.  Each memory
// page has a read-owner and a write-owner (Page Status Table).  When thread
// t reads a page whose read-owner differs, t becomes the read-owner and the
// dependency write_owner -> t is recorded in the Data Dependency Matrix.
// When thread t writes a page it does not write-own, a SavePage exception
// checkpoints the page (handled by the OS) *before* the store lands, and t
// becomes both owners — the state machine of Figure 5.
//
// The module is asynchronous: dependency logging happens on the Commit_Out
// signal so no speculative state ever enters the module.  The SavePage path
// is the exception — it intercepts the store at commit, suspending the
// process until the page is saved.
#pragma once

#include <functional>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/main_memory.hpp"
#include "rse/framework.hpp"
#include "rse/module.hpp"

namespace rse::modules {

// CHECK operations for the DDT (enable/disable go through the framework).
inline constexpr u8 kDdtOpQueryMatrix = 3;  // param = destination buffer address

struct DdtConfig {
  u32 max_threads = 32;   // DDM is max_threads x max_threads bits
  u32 pst_entries = 0;    // 0 = unbounded; otherwise LRU-capped "hot page" table
  bool model_log_lag = false;  // model the 1-cycle lag window of section 4.2.1

  bool operator==(const DdtConfig&) const = default;
};

struct DdtStats {
  u64 tracked_loads = 0;
  u64 tracked_stores = 0;
  u64 dependencies_logged = 0;
  u64 save_page_exceptions = 0;
  u64 pst_evictions = 0;
  u64 lag_missed_dependencies = 0;
  // Static-footprint mode (set_footprint_table):
  u64 footprint_checks = 0;      // committed accesses at statically resolved sites
  u64 footprint_violations = 0;  // such accesses landing outside the predicted set
  u64 pst_prereserved = 0;       // PST entries pre-reserved at activation
  u64 prereserve_hits = 0;       // first store touch that found its entry waiting
};

/// Static page-access signature handed down by the loader (the analyzer's
/// `PageFootprint` resolved against the process layout).  Only accesses whose
/// commit PC is in `checked_pcs` are checked — sites the data-flow pass could
/// not bound stay unchecked, so partial resolution never false-positives.
struct DdtFootprint {
  std::vector<Addr> checked_pcs;  // sorted PCs of statically resolved sites
  std::vector<u32> pages;         // sorted allowed pages (data + stack + gp)
  std::vector<u32> store_pages;   // sorted subset to pre-reserve PST entries for

  /// Per-site page table from the context-sensitive analyzer: a site listed
  /// here is checked against its own pages (plus any runtime-registered
  /// stack pages) instead of the global `pages` set.  Sites not listed fall
  /// back to the global set, so the table is a pure refinement — empty at
  /// context depth 0.
  struct SitePages {
    Addr pc = 0;
    std::vector<u32> pages;  // sorted

    template <class Ar>
    void serialize_state(Ar& ar) {
      ar.field(pc);
      ar.field(pages);
    }
  };
  std::vector<SitePages> pc_pages;  // sorted by pc

  bool empty() const { return checked_pcs.empty(); }

  template <class Ar>
  void serialize_state(Ar& ar) {
    ar.field(checked_pcs);
    ar.field(pages);
    ar.field(store_pages);
    ar.field(pc_pages);
  }
};

class DdtModule : public engine::Module {
 public:
  /// SavePage handler: the OS checkpoints `page` (content is still
  /// pre-store) and returns the number of cycles the process is suspended.
  using SavePageHandler = std::function<Cycle(u32 page, ThreadId new_writer, Cycle now)>;
  /// Footprint-violation observer: a committed access at a statically
  /// resolved site (`pc`) landed on a page outside the predicted set.  The
  /// access itself still completes — the OS decides the response (crash
  /// containment, like a CFC violation).
  using FootprintViolationHandler =
      std::function<void(Addr pc, u32 page, ThreadId thread, bool is_store, Cycle now)>;

  DdtModule(engine::Framework& framework, DdtConfig config = {});

  isa::ModuleId id() const override { return isa::ModuleId::kDdt; }
  const char* name() const override { return "DDT"; }
  engine::HookSet hooks() const override {
    return {engine::Hook::kDispatch, engine::Hook::kCommit, engine::Hook::kStoreCommit};
  }

  void set_save_page_handler(SavePageHandler handler) { on_save_page_ = std::move(handler); }
  void set_footprint_violation_handler(FootprintViolationHandler handler) {
    on_footprint_violation_ = std::move(handler);
  }

  /// Install (or clear, with an empty table) the static footprint.  Survives
  /// reset() like other load-time configuration; activation pre-reserves PST
  /// entries for the predicted store pages.
  void set_footprint_table(DdtFootprint footprint);
  /// Whitelist additional pages resolved only at run time (per-thread stack
  /// envelopes).  No-op until a footprint table is installed.
  void add_footprint_pages(const std::vector<u32>& pages);
  bool has_footprint() const { return !footprint_.empty(); }
  const DdtFootprint& footprint() const { return footprint_; }

  void on_dispatch(const engine::DispatchInfo& info, Cycle now) override;
  void on_commit(const engine::CommitInfo& info, Cycle now) override;
  Cycle on_store_commit(const engine::CommitInfo& info, Cycle now) override;
  void reset() override;

  // ---- recovery-side queries (the OS exception handler's privileged view;
  //      guest code uses the kDdtOpQueryMatrix CHECK instead) ----
  /// True if `consumer` directly depends on `producer`.
  bool depends(ThreadId producer, ThreadId consumer) const;
  /// All threads transitively dependent on `faulty` (including `faulty`).
  std::vector<ThreadId> dependent_closure(ThreadId faulty) const;
  struct PageOwners {
    ThreadId read_owner = kNoThread;
    ThreadId write_owner = kNoThread;
  };
  PageOwners page_owners(u32 page) const;
  /// Clear the DDM rows/columns of terminated threads and forget their page
  /// ownership (post-recovery cleanup).
  void forget_threads(const std::vector<ThreadId>& threads);
  /// Sorted pages currently resident in the PST (test/diagnostic view).
  std::vector<u32> tracked_pages() const;

  const DdtStats& stats() const { return stats_; }
  const DdtConfig& config() const { return config_; }

  /// Snapshot hook: the PST, DDM, footprint tables and statistics.  The
  /// SavePage / footprint-violation handlers are reinstalled by the guest OS
  /// constructor on the restore target, not serialized.
  template <class Ar>
  void serialize_state(Ar& ar) {
    serialize_base(ar);
    ar.field(stats_);
    ar.field(footprint_);
    ar.field(allowed_pages_);
    ar.field(runtime_pages_);
    ar.field(pst_);
    ar.field(pst_stamp_);
    ar.field(ddm_);
    ar.field(last_dep_logged_at_);
    ar.field(mau_buffer_);
  }

 private:
  struct PstEntry {
    ThreadId read_owner = kNoThread;
    ThreadId write_owner = kNoThread;
    u64 lru = 0;
    bool prereserved = false;  // allocated from the static footprint, untouched
    u8 spare[7] = {};          // names the padding: always 0
  };

  PstEntry& pst_lookup(u32 page);
  void maybe_evict();
  void write_matrix_to_guest(Addr dest, Cycle now, const engine::InstrTag& tag);
  void check_footprint(const engine::CommitInfo& info, u32 page, bool is_store, Cycle now);
  void apply_prereservation();

  DdtConfig config_;
  DdtStats stats_;
  SavePageHandler on_save_page_;
  FootprintViolationHandler on_footprint_violation_;

  DdtFootprint footprint_;                 // load-time config; survives reset()
  std::unordered_set<u32> allowed_pages_;  // footprint_.pages as a hash set
  /// Pages whitelisted via add_footprint_pages (per-thread stack envelopes);
  /// a per-site table never excludes these.
  std::unordered_set<u32> runtime_pages_;

  std::unordered_map<u32, PstEntry> pst_;
  u64 pst_stamp_ = 0;
  std::vector<u64> ddm_;  // row r bit c: thread c depends on thread r
  Cycle last_dep_logged_at_ = 0;  // for the optional 1-cycle lag model

  std::vector<u8> mau_buffer_;
};

}  // namespace rse::modules
