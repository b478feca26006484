#include "campaign/workload.hpp"

#include "common/error.hpp"
#include "workloads/workloads.hpp"

namespace rse::campaign {

namespace {

// A deterministic checked compute loop with a data segment: sums and mixes a
// 64-word table for a few hundred iterations.  Small enough that a unit test
// can afford dozens of runs, but long enough (tens of thousands of cycles)
// that injection timing sampling is meaningful.
constexpr const char* kLoopProgram = R"(
.data
table:
  .space 256
.text
main:
  li t0, 0          # i
  li t3, 0          # checksum
  la t4, table
init:
  li t2, 64
  sll t5, t0, 2
  add t5, t5, t4
  addi t6, t0, 17
  sw t6, 0(t5)
  addi t0, t0, 1
  blt t0, t2, init
  li t0, 0          # outer trip count
outer:
  li t1, 0          # table index
inner:
  li t2, 64
  sll t5, t1, 2
  add t5, t5, t4
  lw t6, 0(t5)
  add t3, t3, t6
  sll t6, t6, 1
  xor t6, t6, t3
  sw t6, 0(t5)
  addi t1, t1, 1
  blt t1, t2, inner
  li t2, 16
  addi t0, t0, 1
  blt t0, t2, outer
  move a0, t3
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)";

// Call/return-dominated compute: every loop trip makes three calls that
// return with `jr ra`.  The workload where the static CFC successor table
// (docs/analysis.md) separates from the range-check baseline — a corrupted
// return target that stays inside text passes the range check but misses
// the statically inferred return-site set.  It also separates the
// interprocedural footprint from the flat one: the table pointer in t2 is
// live across the calls (none of the callees touch it), so the indexed
// store and `accum`'s pointer-parameter accesses only resolve when the call
// fall-through keeps registers the callee summaries prove preserved.
constexpr const char* kCallsProgram = R"(
.data
table: .space 256

.text
main:
  li s0, 0          # i
  li s1, 0          # acc
  la t2, table
trip:
  li t0, 40
  bge s0, t0, done
  move a0, s0
  jal square
  add s1, s1, v1
  move a0, s1
  jal mix
  move s1, v1
  andi t3, s0, 63
  sll t3, t3, 2
  add t3, t3, t2
  sw s1, 0(t3)
  move a0, t3
  move a1, s0
  jal accum
  add s1, s1, v1
  addi s0, s0, 1
  b trip
done:
  move a0, s1
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall

square:
  mul v1, a0, a0
  addi v1, v1, 3
  jr ra

mix:
  sll t1, a0, 3
  xor v1, a0, t1
  srl t1, v1, 5
  add v1, v1, t1
  jr ra

accum:
  addi sp, sp, -8
  sw ra, 4(sp)
  sw a1, 0(sp)
  lw t1, 0(a0)
  lw t4, 0(sp)
  add v1, t1, t4
  lw ra, 4(sp)
  addi sp, sp, 8
  jr ra
)";

// Argument-pointer-heavy: a shared callee receives its buffer base through
// a0 and walks it with loads and stores.  One call site passes a global
// table, the other a stack-local scratch area.  The context-insensitive
// analyzer joins the two incoming pointers (global ⊔ stack = unknown) and
// must give up on every access in `fill`; context cloning resolves each
// call site exactly, so the DDT checks the callee's accesses against each
// site's own page set.  This is the workload where `--context-depth`
// separates from depth 0 in bench_ddt_static.
constexpr const char* kArgsProgram = R"(
.data
gbuf: .space 512
.text
main:
  li s0, 0          # trip count
trip:
  li t0, 30
  bge s0, t0, done
  la a0, gbuf       # global-buffer call site
  andi t1, s0, 7
  sll t1, t1, 2
  add a0, a0, t1
  li a1, 16
  jal fill
  addi a0, sp, -256 # stack-buffer call site
  li a1, 16
  jal fill
  addi s0, s0, 1
  b trip
done:
  la a0, gbuf
  lw a0, 0(a0)
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall

fill:               # a0 = buffer base, a1 = word count
  li t2, 0
floop:
  sll t3, t2, 2
  add t3, t3, a0
  lw t4, 0(t3)
  addi t4, t4, 1
  sw t4, 0(t3)
  addi t2, t2, 1
  blt t2, a1, floop
  jr ra
)";

WorkloadSetup base_setup(std::string name, std::string source) {
  WorkloadSetup w;
  w.name = std::move(name);
  w.source = workloads::instrument_checks(std::move(source));
  w.machine.framework_present = true;
  // Campaign workloads are short; the default 50k-cycle self-check watchdog
  // would outlast the hang budget of a small run.  None of them issue
  // blocking operations anywhere near this long.
  w.machine.selfcheck.watchdog_timeout = 5'000;
  w.host_enables = {isa::ModuleId::kCfc};
  return w;
}

}  // namespace

WorkloadSetup make_workload(const std::string& name) {
  if (name == "loop") {
    return base_setup(name, kLoopProgram);
  }
  if (name == "calls") {
    return base_setup(name, kCallsProgram);
  }
  if (name == "args") {
    WorkloadSetup w = base_setup(name, kArgsProgram);
    w.host_enables.push_back(isa::ModuleId::kDdt);
    return w;
  }
  if (name == "stride") {
    WorkloadSetup w = base_setup(name, workloads::stride_source({}));
    w.host_enables.push_back(isa::ModuleId::kDdt);
    return w;
  }
  if (name == "kmeans") {
    workloads::KMeansParams params;
    params.patterns = 40;
    params.clusters = 4;
    params.iters = 2;
    return base_setup(name, workloads::kmeans_source(params));
  }
  if (name == "kmeans-large") {
    return base_setup(name, workloads::kmeans_source({}));
  }
  // Security attack corpus (docs/security.md): guests that attack
  // themselves, each with a benign twin performing the same writes legally.
  if (name == "attack-stack") {
    return base_setup(name, workloads::stack_smash_source({}));
  }
  if (name == "benign-stack") {
    workloads::StackSmashParams params;
    params.payload_offset = 8;  // unused scratch slot instead of the saved ra
    return base_setup(name, workloads::stack_smash_source(params));
  }
  if (name == "attack-got") {
    return base_setup(name, workloads::got_overwrite_source({}));
  }
  if (name == "benign-got") {
    workloads::GotOverwriteParams params;
    params.wild = false;
    return base_setup(name, workloads::got_overwrite_source(params));
  }
  if (name == "attack-heap" || name == "benign-heap") {
    workloads::HeapSprayParams params;
    params.wild = name == "attack-heap";
    WorkloadSetup w = base_setup(name, workloads::heap_spray_source(params));
    // Small entropy keeps the wild store inside the arena for *every* MLR
    // seed — the scenario only DME can see (workloads.hpp).
    w.machine.mlr.entropy_pages = 4;
    return w;
  }
  if (name == "attack-chk") {
    return base_setup(name, workloads::chk_bypass_source({}));
  }
  if (name == "benign-chk") {
    workloads::ChkBypassParams params;
    params.bypass = false;
    params.hostile_patch = false;
    return base_setup(name, workloads::chk_bypass_source(params));
  }
  if (name == "server") {
    workloads::ServerParams params;
    params.threads = 4;
    params.compute_iters = 200;
    params.io_phases = 2;
    params.enable_ddt = true;
    WorkloadSetup w = base_setup(name, workloads::server_source(params));
    w.host_enables.push_back(isa::ModuleId::kDdt);
    return w;
  }
  throw ConfigError("unknown campaign workload: " + name);
}

BootedGuest::BootedGuest(const WorkloadSetup& setup, const isa::Program& program,
                         Cycle run_limit,
                         std::shared_ptr<const analysis::AnalysisResult> analysis)
    : machine(setup.machine), guest(machine, [&] {
        os::OsConfig config = setup.os;
        config.run_limit = run_limit;
        return config;
      }()) {
  guest.load(program, std::move(analysis));
  for (isa::ModuleId id : setup.host_enables) guest.enable_module(id);
}

std::vector<std::string> workload_names() {
  return {"loop",        "calls",      "args",       "stride",      "kmeans",
          "kmeans-large", "server",     "attack-stack", "benign-stack",
          "attack-got",   "benign-got", "attack-heap",  "benign-heap",
          "attack-chk",   "benign-chk"};
}

}  // namespace rse::campaign
