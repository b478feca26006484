#include "analysis/footprint.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "analysis/analyzer.hpp"
#include "isa/semantics.hpp"
#include "mem/main_memory.hpp"

namespace rse::analysis {
namespace {

// Register values are modeled as the signed-i32 reinterpretation of the
// 32-bit register, computed exactly in i64; any operation whose result
// leaves [-2^31, 2^31) would wrap at runtime and degrades to Unknown.  This
// matches the core: addresses stay below 0x8000'0000 (kDefaultStackTop
// guards the signed-compare boundary) and blt/bge compare as i32.
constexpr i64 kMinVal = -(i64{1} << 31);
constexpr i64 kMaxVal = (i64{1} << 31) - 1;

// A block whose in-state keeps changing past this many joins has its
// changing registers widened straight to Unknown, bounding the fixpoint.
constexpr u32 kMaxBlockVisits = 40;

// A resolved range wider than this is useless as a page prediction (it
// would whitelist the whole address space); treat the site as unresolved.
constexpr i64 kMaxSpanBytes = i64{1} << 20;

// Context-sensitive mode: at most this many per-(callee, argument-tuple)
// clones live in the memo cache; further distinct contexts fall back to the
// joined context (which is always sound — it is the classic join-over-all-
// call-sites state the context-insensitive pass uses for everything).
constexpr u32 kMaxContextClones = 32;

// Spawn-context binding (thread-entry $a0 from create-site $a1) iterates
// run → harvest → re-run until the observed create arguments are covered by
// the assumed binding; give up (keep the unbound, fully sound probe run)
// after this many bound re-runs.
constexpr u32 kMaxSpawnRounds = 3;

/// Strided-interval value: the concrete set is {lo, lo+stride, ..., hi}.
/// Normalization invariant (enforced by make()): stride == 0 iff the value
/// is a singleton (lo == hi); stride == 1 is the dense interval; stride >= 2
/// requires (hi - lo) % stride == 0 so hi is always on the residue grid.
/// With field sensitivity off, stride is a pure function of the bounds
/// (0 for singletons, 1 otherwise), so the pre-stride interval semantics
/// are reproduced bit-for-bit.
struct AbsVal {
  enum class Kind : u8 { kUnknown, kAbs, kSp, kGp };
  Kind kind = Kind::kUnknown;
  i64 lo = 0;
  i64 hi = 0;
  i64 stride = 0;

  bool operator==(const AbsVal& o) const {
    if (kind != o.kind) return false;
    if (kind == Kind::kUnknown) return true;
    return lo == o.lo && hi == o.hi && stride == o.stride;
  }
};

using Kind = AbsVal::Kind;

/// Constructor + normalizer.  Degenerate strides (zero or negative on a
/// non-singleton) and misaligned strides ((hi-lo) % stride != 0) demote to
/// the dense hull — never the other way around, so the value set can only
/// grow and no caller can under-approximate by passing a junk stride.
AbsVal make(Kind kind, i64 lo, i64 hi, i64 stride = 1) {
  if (kind == Kind::kUnknown || lo > hi || lo < kMinVal || hi > kMaxVal) {
    return AbsVal{};
  }
  if (lo == hi) return AbsVal{kind, lo, hi, 0};
  if (stride <= 1 || (hi - lo) % stride != 0) return AbsVal{kind, lo, hi, 1};
  return AbsVal{kind, lo, hi, stride};
}

AbsVal abs_const(i64 v) { return make(Kind::kAbs, v, v); }

bool is_singleton(const AbsVal& v) {
  return v.kind != Kind::kUnknown && v.lo == v.hi;
}

/// Join of two strided intervals.  Field mode keeps the coarsest residue
/// grid both operands live on: g = gcd(stride_a, stride_b, |lo_a - lo_b|)
/// (gcd(0, x) = x, so singletons are the identity).  Every element of
/// either operand is ≡ min(lo_a, lo_b) (mod g) — the strides divide g and
/// the anchors differ by a multiple of g — and both his sit on the grid by
/// the normalization invariant, so the result is a superset of the union
/// (sound).  Successive joins can only shrink g by divisibility, so stride
/// chains are finite and termination is preserved.
AbsVal join(const AbsVal& a, const AbsVal& b, bool field = false) {
  if (a.kind == Kind::kUnknown || b.kind == Kind::kUnknown || a.kind != b.kind) {
    return AbsVal{};
  }
  const i64 lo = std::min(a.lo, b.lo);
  const i64 hi = std::max(a.hi, b.hi);
  if (!field) return make(a.kind, lo, hi);
  i64 g = std::gcd(a.stride, b.stride);
  g = std::gcd(g, a.lo >= b.lo ? a.lo - b.lo : b.lo - a.lo);
  return make(a.kind, lo, hi, g == 0 ? 0 : g);
}

/// Total order for the context memo-cache key (any consistent order works;
/// it must distinguish everything operator== does, including the stride).
bool absval_less(const AbsVal& a, const AbsVal& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.kind == Kind::kUnknown) return false;
  if (a.lo != b.lo) return a.lo < b.lo;
  if (a.hi != b.hi) return a.hi < b.hi;
  return a.stride < b.stride;
}

using State = std::array<AbsVal, isa::kNumRegs>;

/// Abstract argument tuple a context clone is keyed on.
using ArgTuple = std::array<AbsVal, 4>;  // $a0-$a3

struct CtxKey {
  Addr entry = 0;
  ArgTuple args{};
  /// Recursion rung ($sp depth) of the clone: 0 for plain argument-tuple
  /// contexts, k >= 1 for the k-th nested activation of a recursive entry
  /// (field-sensitive mode only).
  u32 rung = 0;

  bool operator<(const CtxKey& o) const {
    if (entry != o.entry) return entry < o.entry;
    if (rung != o.rung) return rung < o.rung;
    for (size_t i = 0; i < args.size(); ++i) {
      if (!(args[i] == o.args[i])) return absval_less(args[i], o.args[i]);
    }
    return false;
  }
};

/// Root state: everything Unknown except the architectural invariants.
State root_state() {
  State s{};
  s[0] = abs_const(0);
  s[isa::kSp] = make(Kind::kSp, 0, 0);
  s[isa::kGp] = make(Kind::kGp, 0, 0);
  return s;
}

/// The i32 reinterpretation of an exact u32 bit pattern.
i64 from_u32(u32 v) { return static_cast<i64>(static_cast<i32>(v)); }

void set_dest(State& s, u8 reg, const AbsVal& v) {
  if (reg != 0) s[reg] = v;
}

/// Interval addition; keeps the (at most one) relative base.  Sums of
/// strided sets live on the gcd grid of the operand strides (a singleton's
/// stride 0 is the gcd identity, so singleton + strided is exact).  A
/// stride >= 2 only exists in field mode, so no gating is needed here.
AbsVal add_vals(const AbsVal& a, const AbsVal& b) {
  const i64 s = std::gcd(a.stride, b.stride);
  if (a.kind == Kind::kAbs && b.kind == Kind::kAbs) {
    return make(Kind::kAbs, a.lo + b.lo, a.hi + b.hi, s);
  }
  if (a.kind != Kind::kUnknown && b.kind == Kind::kAbs) {
    return make(a.kind, a.lo + b.lo, a.hi + b.hi, s);
  }
  if (a.kind == Kind::kAbs && b.kind != Kind::kUnknown) {
    return make(b.kind, a.lo + b.lo, a.hi + b.hi, s);
  }
  return AbsVal{};
}

/// Transfer function for one non-control instruction (control effects —
/// link registers, clobbers, refinement — are handled on edges).  `field`
/// gates the two stride-*introduction* points (shift-left and multiply):
/// with it off no stride >= 2 ever enters the state, reproducing the dense
/// interval semantics exactly.
void transfer(const isa::Instr& in, State& s, bool field) {
  using isa::Op;
  const AbsVal rs = s[in.rs];
  const AbsVal rt = s[in.rt];
  const u32 uimm = static_cast<u32>(in.imm) & 0xFFFFu;
  const i64 imm = in.imm;

  switch (in.op) {
    case Op::kAdd: set_dest(s, in.rd, add_vals(rs, rt)); break;
    case Op::kAddi: set_dest(s, in.rt, add_vals(rs, abs_const(imm))); break;
    case Op::kSub:
      if (rt.kind == Kind::kAbs && rs.kind != Kind::kUnknown) {
        // Abs-Abs stays Abs; Sp-Abs / Gp-Abs keep the base.
        set_dest(s, in.rd, make(rs.kind, rs.lo - rt.hi, rs.hi - rt.lo,
                                std::gcd(rs.stride, rt.stride)));
      } else if (rs.kind == rt.kind && rs.kind != Kind::kUnknown) {
        // Same-base difference (Sp-Sp, Gp-Gp): the base cancels.
        set_dest(s, in.rd, make(Kind::kAbs, rs.lo - rt.hi, rs.hi - rt.lo,
                                std::gcd(rs.stride, rt.stride)));
      } else {
        set_dest(s, in.rd, AbsVal{});
      }
      break;
    case Op::kLui:
      set_dest(s, in.rt, abs_const(from_u32(uimm << 16)));
      break;
    case Op::kOri:
      if (is_singleton(rs) && rs.kind == Kind::kAbs) {
        set_dest(s, in.rt, abs_const(from_u32(static_cast<u32>(rs.lo) | uimm)));
      } else if (uimm == 0) {
        set_dest(s, in.rt, rs);
      } else {
        set_dest(s, in.rt, AbsVal{});
      }
      break;
    case Op::kAndi:
      // rs & uimm lands in [0, uimm] whatever rs is (uimm is 16-bit).
      if (is_singleton(rs) && rs.kind == Kind::kAbs) {
        set_dest(s, in.rt, abs_const(from_u32(static_cast<u32>(rs.lo) & uimm)));
      } else {
        set_dest(s, in.rt, make(Kind::kAbs, 0, static_cast<i64>(uimm)));
      }
      break;
    case Op::kXori:
      if (is_singleton(rs) && rs.kind == Kind::kAbs) {
        set_dest(s, in.rt, abs_const(from_u32(static_cast<u32>(rs.lo) ^ uimm)));
      } else {
        set_dest(s, in.rt, AbsVal{});
      }
      break;
    case Op::kAnd:
      if (is_singleton(rs) && is_singleton(rt) && rs.kind == Kind::kAbs &&
          rt.kind == Kind::kAbs) {
        set_dest(s, in.rd,
                 abs_const(from_u32(static_cast<u32>(rs.lo) & static_cast<u32>(rt.lo))));
      } else if (rt.kind == Kind::kAbs && rt.lo == rt.hi && rt.lo >= 0) {
        set_dest(s, in.rd, make(Kind::kAbs, 0, rt.lo));  // mask bound
      } else if (rs.kind == Kind::kAbs && rs.lo == rs.hi && rs.lo >= 0) {
        set_dest(s, in.rd, make(Kind::kAbs, 0, rs.lo));
      } else {
        set_dest(s, in.rd, AbsVal{});
      }
      break;
    case Op::kOr:
      if (is_singleton(rs) && is_singleton(rt) && rs.kind == Kind::kAbs &&
          rt.kind == Kind::kAbs) {
        set_dest(s, in.rd,
                 abs_const(from_u32(static_cast<u32>(rs.lo) | static_cast<u32>(rt.lo))));
      } else if (rt.kind == Kind::kAbs && rt.lo == 0 && rt.hi == 0) {
        set_dest(s, in.rd, rs);  // or rd, rs, r0 — the `move` idiom
      } else if (rs.kind == Kind::kAbs && rs.lo == 0 && rs.hi == 0) {
        set_dest(s, in.rd, rt);
      } else {
        set_dest(s, in.rd, AbsVal{});
      }
      break;
    case Op::kXor:
    case Op::kNor:
      if (is_singleton(rs) && is_singleton(rt) && rs.kind == Kind::kAbs &&
          rt.kind == Kind::kAbs) {
        const u32 a = static_cast<u32>(rs.lo);
        const u32 b = static_cast<u32>(rt.lo);
        set_dest(s, in.rd, abs_const(from_u32(in.op == Op::kXor ? (a ^ b) : ~(a | b))));
      } else {
        set_dest(s, in.rd, AbsVal{});
      }
      break;
    case Op::kSll: {
      if (rt.kind == Kind::kAbs && rt.lo >= 0) {
        // Stride introduction: {lo..hi} << n walks a 2^n-residue grid
        // (scaled by the operand's own stride when it already has one).
        const i64 stride =
            field ? (std::max<i64>(rt.stride, 1) << in.shamt) : 1;
        set_dest(s, in.rd,
                 make(Kind::kAbs, rt.lo << in.shamt, rt.hi << in.shamt, stride));
      } else {
        set_dest(s, in.rd, AbsVal{});
      }
      break;
    }
    case Op::kSrl:
    case Op::kSra: {
      if (rt.kind == Kind::kAbs && rt.lo >= 0) {
        // Exact only when the grid survives the shift (stride divisible by
        // 2^n); otherwise the shifted elements are not equally spaced and
        // the result demotes to the dense hull.
        const i64 stride =
            (rt.stride >= 2 && (rt.stride % (i64{1} << in.shamt)) == 0)
                ? (rt.stride >> in.shamt)
                : 1;
        set_dest(s, in.rd,
                 make(Kind::kAbs, rt.lo >> in.shamt, rt.hi >> in.shamt, stride));
      } else {
        set_dest(s, in.rd, AbsVal{});
      }
      break;
    }
    case Op::kSlt:
    case Op::kSltu:
      set_dest(s, in.rd, make(Kind::kAbs, 0, 1));
      break;
    case Op::kSlti:
    case Op::kSltiu:
      set_dest(s, in.rt, make(Kind::kAbs, 0, 1));
      break;
    case Op::kMul: {
      if (is_singleton(rs) && is_singleton(rt) && rs.kind == Kind::kAbs &&
          rt.kind == Kind::kAbs) {
        set_dest(s, in.rd, make(Kind::kAbs, rs.lo * rt.lo, rs.lo * rt.lo));
      } else if (rs.kind == Kind::kAbs && rt.kind == Kind::kAbs && rs.lo >= 0 &&
                 rt.lo >= 0) {
        // Stride introduction: a range scaled by a constant factor c walks
        // a c*stride grid ({c*lo, c*(lo+s), ...} is exact).
        i64 stride = 1;
        if (field) {
          if (is_singleton(rs)) {
            stride = rs.lo * std::max<i64>(rt.stride, 1);
          } else if (is_singleton(rt)) {
            stride = rt.lo * std::max<i64>(rs.stride, 1);
          }
        }
        set_dest(s, in.rd, make(Kind::kAbs, rs.lo * rt.lo, rs.hi * rt.hi, stride));
      } else {
        set_dest(s, in.rd, AbsVal{});
      }
      break;
    }
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kMulh:
    case Op::kDiv:
    case Op::kRem:
      set_dest(s, in.rd, AbsVal{});
      break;
    case Op::kLw:
    case Op::kLh:
    case Op::kLhu:
    case Op::kLb:
    case Op::kLbu:
      set_dest(s, in.rt, AbsVal{});
      break;
    default:
      // Stores, branches, jumps, chk, syscall: no GPR effect here (link
      // registers and syscall clobbers are applied on the outgoing edge).
      break;
  }
  s[0] = abs_const(0);
}

/// Caller-saved registers (clobbered across a call's fall-through edge).
bool caller_saved(u8 reg) {
  if (reg >= 1 && reg <= 15) return true;            // at, v0-v1, a0-a3, t0-t7
  if (reg >= 24 && reg <= 27) return true;           // t8-t9, k0-k1
  return reg == isa::kRa;
}

State clobber_call(const State& in) {
  State out = in;
  for (u8 r = 0; r < isa::kNumRegs; ++r) {
    if (caller_saved(r)) out[r] = AbsVal{};
  }
  out[0] = abs_const(0);
  return out;
}

u32 caller_saved_mask() {
  u32 mask = 0;
  for (u8 r = 1; r < isa::kNumRegs; ++r) {
    if (caller_saved(r)) mask |= (1u << r);
  }
  return mask;
}

/// Registers a call's fall-through may refine from a callee summary.  The
/// flat model already assumes everything outside the caller-saved set is
/// ABI-preserved, so summaries only ever *improve* on it for caller-saved
/// registers — plus sp/gp, whose clobber bits the summary clears only under
/// an arithmetic restore proof (see summarize_function).
u32 refinable_mask() {
  return caller_saved_mask() | (1u << isa::kSp) | (1u << isa::kGp);
}

/// Syntactic register-write mask of one instruction (jal links ra, syscall
/// clobbers v0/v1; r0 writes are discarded by dest_reg()).
u32 write_mask(const isa::Instr& in) {
  u32 mask = 0;
  if (const auto rd = in.dest_reg()) mask |= (1u << *rd);
  if (in.op == isa::Op::kSyscall) {
    mask |= (1u << isa::kV0) | (1u << isa::kV1);
  }
  return mask;
}

/// Re-expresses a value computed against a callee's entry sp/gp in the
/// caller's frame: the callee entered with sp == sp_at_call and
/// gp == gp_at_call, so Sp[lo,hi] becomes sp_at_call + [lo,hi] (same for
/// Gp); absolute values carry over unchanged.
AbsVal rebase(const AbsVal& v, const AbsVal& sp_at_call, const AbsVal& gp_at_call) {
  switch (v.kind) {
    case Kind::kAbs:
      return v;
    case Kind::kSp:
      return add_vals(sp_at_call, make(Kind::kAbs, v.lo, v.hi));
    case Kind::kGp:
      return add_vals(gp_at_call, make(Kind::kAbs, v.lo, v.hi));
    default:
      return AbsVal{};
  }
}

/// Internal parametric function summary (exported as FunctionSummary).
/// Everything is relative to the function's own entry sp/gp.
struct Summary {
  Addr entry = 0;
  bool summarized = false;
  u32 clobbered = 0;  // see FunctionSummary::clobbered_regs
  bool returns = false;
  std::set<u32> pages;
  std::set<u32> store_pages;
  bool has_sp = false;
  i64 sp_lo = 0;
  i64 sp_hi = 0;
  bool has_gp = false;
  i64 gp_lo = 0;
  i64 gp_hi = 0;
  u32 unknown = 0;
  // Joined v0/v1 over all return paths, vs. the entry sp/gp (Unknown when
  // the function doesn't produce a trackable result).
  AbsVal ret_v0;
  AbsVal ret_v1;

  bool operator==(const Summary& o) const {
    return entry == o.entry && summarized == o.summarized &&
           clobbered == o.clobbered && returns == o.returns &&
           pages == o.pages && store_pages == o.store_pages &&
           has_sp == o.has_sp && (!has_sp || (sp_lo == o.sp_lo && sp_hi == o.sp_hi)) &&
           has_gp == o.has_gp && (!has_gp || (gp_lo == o.gp_lo && gp_hi == o.gp_hi)) &&
           unknown == o.unknown && ret_v0 == o.ret_v0 && ret_v1 == o.ret_v1;
  }
  bool operator!=(const Summary& o) const { return !(*this == o); }
};

using SummaryMap = std::map<Addr, Summary>;

/// Range refinement along a conditional-branch edge.  Only same-kind
/// operands are comparable (Abs vs Abs, or same-base offsets where the base
/// cancels); unsigned branches are treated as signed only when both ranges
/// are provably non-negative (no wrap across the sign boundary).
void refine_edge(const isa::Instr& in, bool taken, State& s) {
  using isa::Op;
  AbsVal a = s[in.rs];
  AbsVal b = s[in.rt];
  if (a.kind == Kind::kUnknown || b.kind == Kind::kUnknown || a.kind != b.kind) {
    return;
  }
  // Residue grids survive refinement: clamped bounds are realigned onto the
  // operand's own original grid (lo up to the next element, hi down to the
  // previous), which is exact — off-grid values were never in the set.
  const i64 a_anchor = a.lo, a_stride = a.stride;
  const i64 b_anchor = b.lo, b_stride = b.stride;
  const bool unsigned_cmp = in.op == Op::kBltu || in.op == Op::kBgeu;
  if (unsigned_cmp && (a.lo < 0 || b.lo < 0)) return;

  // Normalize to one of: a < b holds, or a >= b holds, or ==, or !=.
  enum class Rel { kLt, kGe, kEq, kNe, kNone };
  Rel rel = Rel::kNone;
  switch (in.op) {
    case Op::kBlt:
    case Op::kBltu:
      rel = taken ? Rel::kLt : Rel::kGe;
      break;
    case Op::kBge:
    case Op::kBgeu:
      rel = taken ? Rel::kGe : Rel::kLt;
      break;
    case Op::kBeq:
      rel = taken ? Rel::kEq : Rel::kNe;
      break;
    case Op::kBne:
      rel = taken ? Rel::kNe : Rel::kEq;
      break;
    default:
      return;
  }

  switch (rel) {
    case Rel::kLt:  // a < b
      a.hi = std::min(a.hi, b.hi - 1);
      b.lo = std::max(b.lo, a.lo + 1);
      break;
    case Rel::kGe:  // a >= b
      a.lo = std::max(a.lo, b.lo);
      b.hi = std::min(b.hi, a.hi);
      break;
    case Rel::kEq: {  // intersect
      const i64 lo = std::max(a.lo, b.lo);
      const i64 hi = std::min(a.hi, b.hi);
      a.lo = b.lo = lo;
      a.hi = b.hi = hi;
      break;
    }
    case Rel::kNe:  // shave a singleton off a matching endpoint
      if (is_singleton(b)) {
        // The next possible element past a shaved endpoint is one grid
        // step away, not one byte.
        if (a.lo == b.lo) a.lo += std::max<i64>(a_stride, 1);
        if (a.hi == b.lo) a.hi -= std::max<i64>(a_stride, 1);
      }
      if (is_singleton(a)) {
        if (b.lo == a.lo) b.lo += std::max<i64>(b_stride, 1);
        if (b.hi == a.lo) b.hi -= std::max<i64>(b_stride, 1);
      }
      break;
    case Rel::kNone:
      return;
  }
  // Realign clamped bounds onto each operand's original residue grid: lo
  // rounds up to the next on-grid element, hi rounds down.  A grid with no
  // element left in the clamped range comes out empty (lo > hi) and marks
  // the edge infeasible below.
  auto realign = [](AbsVal& v, i64 anchor, i64 stride) {
    if (stride < 2) return;
    const i64 mlo = ((v.lo - anchor) % stride + stride) % stride;
    if (mlo != 0) v.lo += stride - mlo;
    const i64 mhi = ((v.hi - anchor) % stride + stride) % stride;
    v.hi -= mhi;
  };
  realign(a, a_anchor, a_stride);
  realign(b, b_anchor, b_stride);
  // An empty refined range marks the edge statically infeasible; the caller
  // detects it via the sentinel and skips propagation.
  s[in.rs] =
      (a.lo > a.hi) ? AbsVal{Kind::kAbs, 1, 0} : make(a.kind, a.lo, a.hi, a_stride);
  s[in.rt] =
      (b.lo > b.hi) ? AbsVal{Kind::kAbs, 1, 0} : make(b.kind, b.lo, b.hi, b_stride);
  s[0] = abs_const(0);
}

bool infeasible(const State& s) {
  for (const AbsVal& v : s) {
    if (v.kind != Kind::kUnknown && v.lo > v.hi) return true;
  }
  return false;
}

void add_page_range(std::set<u32>& pages, Addr lo, Addr hi) {
  for (u32 page = mem::page_of(lo); page <= mem::page_of(hi); ++page) {
    pages.insert(page);
  }
}

/// Strided page fold: pages touched by accesses of `size` bytes starting at
/// {lo, lo+stride, ..., <= hi-size+1}.  For stride <= page size consecutive
/// starts land on the same or adjacent pages, so the dense hull fold is
/// already exact; only a stride wider than a page can skip pages, and then
/// the element count is bounded by kMaxSpanBytes / kPageBytes (the span was
/// capped in classify_site).  A degenerate stride (<= 0 from a demoted
/// value) folds the dense hull — never under-approximates.
void add_page_range_strided(std::set<u32>& pages, Addr lo, Addr hi, i64 stride,
                            u32 size) {
  if (stride <= static_cast<i64>(mem::kPageBytes)) {
    add_page_range(pages, lo, hi);
    return;
  }
  const i64 last = static_cast<i64>(hi) - static_cast<i64>(size) + 1;
  for (i64 e = static_cast<i64>(lo); e <= last; e += stride) {
    add_page_range(pages, static_cast<Addr>(e),
                   static_cast<Addr>(e + static_cast<i64>(size) - 1));
  }
}

void record_envelope(bool& has, i64& env_lo, i64& env_hi, i64 lo, i64 hi) {
  if (!has) {
    has = true;
    env_lo = lo;
    env_hi = hi;
  } else {
    env_lo = std::min(env_lo, lo);
    env_hi = std::max(env_hi, hi);
  }
}

/// Widening thresholds: the i32 constants the program can materialize
/// (immediates plus li/la lui+ori expansions).  Loop bounds and data
/// segment base addresses are exactly these, so jumping a growing bound to
/// the nearest threshold first — and to the domain limit only when no
/// threshold fits or the bound already sits on one — keeps loop counters
/// and outer-loop-carried pointers finite where a straight jump to the
/// domain limit would overflow follow-on arithmetic into Unknown.
std::vector<i64> collect_thresholds(const isa::Program& program,
                                    const ControlFlowGraph& cfg) {
  std::set<i64> out;
  auto add = [&](i64 v) {
    if (v >= kMinVal && v <= kMaxVal) out.insert(v);
  };
  for (const BasicBlock& block : cfg.blocks) {
    bool have_lui = false;
    u8 lui_rt = 0;
    u32 lui_val = 0;
    for (Addr pc = block.start; pc < block.end; pc += 4) {
      const isa::Instr in = isa::decode(program.text_word(pc));
      const u32 uimm = static_cast<u32>(in.imm) & 0xFFFFu;
      switch (in.op) {
        case isa::Op::kAddi:
          add(in.imm);
          break;
        case isa::Op::kLui:
          add(from_u32(uimm << 16));
          break;
        case isa::Op::kOri:
          if (in.rs == 0) add(static_cast<i64>(uimm));
          if (have_lui && in.rs == lui_rt) add(from_u32(lui_val | uimm));
          break;
        default:
          break;
      }
      if (in.op == isa::Op::kLui) {
        have_lui = true;
        lui_rt = in.rt;
        lui_val = uimm << 16;
      } else if (const auto rd = in.dest_reg(); rd.has_value() && have_lui &&
                 *rd == lui_rt && in.op != isa::Op::kOri) {
        have_lui = false;
      }
    }
  }
  return std::vector<i64>(out.begin(), out.end());
}

/// Classified byte range of one access site given the base register value.
struct SiteRange {
  AddressBase base = AddressBase::kUnknown;
  AccessPrecision precision = AccessPrecision::kUnknown;
  i64 lo = 0;
  i64 hi = 0;
  /// Residue grid of the access *start* addresses inside [lo, hi - size + 1]
  /// (0 = singleton, 1 = dense); [lo, hi] includes the access width.
  i64 stride = 0;
  u32 size = 1;
};

SiteRange classify_site(const AbsVal& base, i64 imm, u32 size) {
  SiteRange r;
  if (base.kind == Kind::kUnknown) return r;
  const i64 lo = base.lo + imm;
  const i64 hi = base.hi + imm + static_cast<i64>(size) - 1;
  if (hi - lo > kMaxSpanBytes) return r;
  // Unified wrap guard for every base kind: an interval that leaves the
  // signed-i32 domain would wrap at runtime, so it must demote to Unknown —
  // folding it into a page index or sp/gp envelope would whitelist (or
  // later u32-cast to) the wrong pages.  Absolute addresses additionally
  // may not be negative.
  if (lo < kMinVal || hi > kMaxVal) return r;
  if (base.kind == Kind::kAbs && lo < 0) return r;
  r.lo = lo;
  r.hi = hi;
  r.stride = base.stride;
  r.size = size;
  r.precision =
      is_singleton(base) ? AccessPrecision::kExact : AccessPrecision::kOver;
  switch (base.kind) {
    case Kind::kAbs: r.base = AddressBase::kAbsolute; break;
    case Kind::kSp: r.base = AddressBase::kStack; break;
    case Kind::kGp: r.base = AddressBase::kGlobal; break;
    default: break;
  }
  return r;
}

/// Per-block induction pass (field mode): which registers the program ever
/// advances by a loop-carried step, and by how much.  `addi r, r, imm`
/// records |imm| as a known step; `add`/`sub` with the destination among
/// the sources is a self-update with a register step (any stride could be
/// legitimate).  propagate() uses this as a precision filter: a residue
/// grid born purely from *joining* dense/singleton inputs is kept only
/// when some recorded step explains it — otherwise it is coincidence (two
/// unrelated constants meeting at a join point) and the value demotes to
/// the dense hull.  Purely a precision heuristic: both keeping and
/// demoting are sound.
struct InductionSteps {
  std::array<std::vector<i64>, isa::kNumRegs> steps{};
  std::array<bool, isa::kNumRegs> any_step{};

  bool explains(u8 reg, i64 stride) const {
    if (any_step[reg]) return true;
    for (const i64 d : steps[reg]) {
      if (stride % d == 0) return true;
    }
    return false;
  }
};

InductionSteps collect_induction(const isa::Program& program,
                                 const ControlFlowGraph& cfg) {
  InductionSteps ind;
  for (const BasicBlock& block : cfg.blocks) {
    for (Addr pc = block.start; pc < block.end; pc += 4) {
      const isa::Instr in = isa::decode(program.text_word(pc));
      switch (in.op) {
        case isa::Op::kAddi:
          if (in.rt == in.rs && in.rt != 0 && in.imm != 0) {
            const i64 d = in.imm < 0 ? -static_cast<i64>(in.imm)
                                     : static_cast<i64>(in.imm);
            ind.steps[in.rt].push_back(d);
          }
          break;
        case isa::Op::kAdd:
        case isa::Op::kSub:
          if (in.rd != 0 && (in.rd == in.rs || in.rd == in.rt)) {
            ind.any_step[in.rd] = true;
          }
          break;
        default:
          break;
      }
    }
  }
  for (auto& v : ind.steps) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return ind;
}

/// Worklist data-flow engine over block in-states.  Two modes share it:
/// the program-wide pass (enter_callees = true, call fall-throughs refined
/// from summaries when available) and the per-function summary pass
/// (region-restricted, parametric entry state, callees modeled only by
/// their summaries).
struct FixpointPass {
  FixpointPass(const isa::Program& p, const ControlFlowGraph& g)
      : program(p), cfg(g) {}

  const isa::Program& program;
  const ControlFlowGraph& cfg;
  bool interprocedural = false;
  const SummaryMap* summaries = nullptr;
  // Summary mode: [region_lo, region_hi) bounds the function; propagation
  // to a target outside it is not followed and sets left_region (the
  // function cannot be summarized).  region_hi == 0 means unrestricted.
  Addr region_lo = 0;
  Addr region_hi = 0;
  bool enter_callees = true;
  const std::vector<i64>* thresholds = nullptr;  // sorted; ipa mode only

  // Context-sensitive cloning (program-wide pass only; 0 = single joined
  // context, the exact context-insensitive behavior).  Direct calls whose
  // $a0-$a3 abstract tuple is not all-Unknown enter a per-(callee, tuple)
  // clone memoized in `context_index`, up to `context_depth` nested clones
  // per call path and `max_context_clones` cache entries; everything else
  // (indirect calls, exhausted depth, saturated cache) falls back to the
  // joined context 0.
  u32 context_depth = 0;
  u32 max_context_clones = kMaxContextClones;
  // Optional $a0 bindings for address-taken roots (thread entries), from
  // the create-site harvest in compute_footprint.  Only read when
  // context_depth > 0.
  const std::map<Addr, AbsVal>* spawn_bindings = nullptr;

  // Field-sensitive mode: strided-interval domain in transfer/join, plus
  // per-$sp-depth recursion contexts — a call whose callee entry is already
  // on the ancestor context chain clones per recursion rung up to sp_depth
  // (bypassing the context_depth budget but not the clone cache cap), so
  // each recursion level keeps its own frame envelope.
  bool field_sensitive = false;
  u32 sp_depth = 0;
  const InductionSteps* induction = nullptr;

  struct CtxInfo {
    Addr entry = 0;  // 0 for the joined root context
    ArgTuple args{};
    u32 depth = 0;
    u32 rung = 0;     // recursion rung of this clone (0 = not recursive)
    i32 parent = -1;  // index of the context that entered this clone
  };
  std::vector<CtxInfo> contexts;      // [0] = joined context
  std::map<CtxKey, u32> context_index;
  u32 contexts_cloned = 0;
  u32 context_fallbacks = 0;
  u32 spawn_contexts = 0;
  u32 sp_contexts = 0;

  // All per-block analysis state is context-major: index [ctx][block].
  std::vector<std::vector<State>> in_state;
  std::vector<std::vector<bool>> has_state;
  bool left_region = false;

  std::vector<std::vector<u32>> visits;
  std::deque<std::pair<u32, u32>> worklist;  // (context, block)
  std::vector<std::vector<bool>> queued;
  std::vector<u32> in_degree;  // per block, shared across contexts
  // Per-(context, block, register) widening strikes (ipa mode): 1 = jumped
  // to a threshold, 2 = jumped to the domain limits, 3 = forced Unknown.
  std::vector<std::vector<std::array<u8, isa::kNumRegs>>> strikes;

  bool in_region(Addr pc) const {
    return region_hi == 0 || (pc >= region_lo && pc < region_hi);
  }

  /// Smallest threshold covering the grown bound (domain limit when none).
  i64 threshold_hi(i64 grown) const {
    if (thresholds != nullptr) {
      const auto it =
          std::lower_bound(thresholds->begin(), thresholds->end(), grown);
      if (it != thresholds->end()) return *it;
    }
    return kMaxVal;
  }

  i64 threshold_lo(i64 shrunk) const {
    if (thresholds != nullptr) {
      const auto it =
          std::upper_bound(thresholds->begin(), thresholds->end(), shrunk);
      if (it != thresholds->begin()) return *std::prev(it);
    }
    return kMinVal;
  }

  const Summary* summary_of(Addr callee) const {
    if (summaries == nullptr) return nullptr;
    const auto it = summaries->find(callee);
    return it == summaries->end() ? nullptr : &it->second;
  }

  /// True when every call candidate is known and carries a usable summary.
  bool all_summarized(const std::vector<Addr>& targets) const {
    if (!interprocedural || targets.empty()) return false;
    for (Addr t : targets) {
      const Summary* s = summary_of(t);
      if (s == nullptr || !s->summarized) return false;
    }
    return true;
  }

  /// Whether the call's fall-through is reachable at all.  Only provable
  /// when every candidate is summarized and none reaches a return.
  bool may_return(const std::vector<Addr>& targets) const {
    if (!all_summarized(targets)) return true;
    for (Addr t : targets) {
      if (summary_of(t)->returns) return true;
    }
    return false;
  }

  /// Caller state after a call returns.  With full candidate summaries the
  /// fall-through keeps every refinable register whose joined clobber bit
  /// is clear (the flat caller-saved wipe restricted to the actually
  /// clobbered set); otherwise the flat clobber applies.  `link` is the
  /// call's link register (ra for jal, rd for jalr).
  State call_fallthrough(const State& at_call, const std::vector<Addr>& targets,
                         Addr ret, u8 link) const {
    if (!all_summarized(targets)) return clobber_call(at_call);
    u32 clob = 0;
    for (Addr t : targets) clob |= summary_of(t)->clobbered;
    State next = at_call;
    const u32 refinable = refinable_mask();
    for (u8 r = 1; r < isa::kNumRegs; ++r) {
      const u32 bit = 1u << r;
      if ((refinable & bit) == 0) continue;  // ABI-preserved, as in flat mode
      if ((clob & bit) != 0) next[r] = AbsVal{};
    }
    // The call wrote the return address into `link`; candidates that
    // provably never touch it leave it holding that constant.
    if (link != 0 && (clob & (1u << link)) == 0) {
      next[link] = abs_const(from_u32(static_cast<u32>(ret)));
    }
    // Return-value binding: a v0/v1 the callees write folds to the join of
    // the summary return values, rebased into this caller's frame.
    for (const u8 v : {isa::kV0, isa::kV1}) {
      if ((clob & (1u << v)) == 0) continue;  // not written: kept above
      AbsVal joined;
      bool first = true;
      for (Addr t : targets) {
        const Summary* s = summary_of(t);
        const AbsVal rv = rebase(v == isa::kV0 ? s->ret_v0 : s->ret_v1,
                                 at_call[isa::kSp], at_call[isa::kGp]);
        joined = first ? rv : join(joined, rv, field_sensitive);
        first = false;
        if (joined.kind == Kind::kUnknown) break;
      }
      next[v] = joined;
    }
    next[0] = abs_const(0);
    return next;
  }

  u32 new_context(Addr entry, const ArgTuple& args, u32 depth, u32 rung,
                  i32 parent) {
    const size_t n = cfg.blocks.size();
    contexts.push_back(CtxInfo{entry, args, depth, rung, parent});
    in_state.emplace_back(n);
    has_state.emplace_back(n, false);
    visits.emplace_back(n, 0);
    queued.emplace_back(n, false);
    strikes.emplace_back(n);
    return static_cast<u32>(contexts.size() - 1);
  }

  /// Number of ancestor contexts (including ctx itself) already analyzing
  /// `entry` — the recursion rung of a call to `entry` made from ctx.
  u32 recursion_rung(u32 ctx, Addr entry) const {
    u32 rung = 0;
    for (i32 p = static_cast<i32>(ctx); p >= 0; p = contexts[p].parent) {
      if (contexts[p].entry == entry) rung += 1;
    }
    return rung;
  }

  /// Routes a call entry (direct call, or a spawn-bound thread root) into a
  /// per-(callee, argument-tuple) clone when the depth budget and memo
  /// cache allow, and into the joined context 0 otherwise.  The joined
  /// context is the context-insensitive state, so every fallback is sound
  /// by construction.  Field mode additionally clones *recursive* calls per
  /// recursion rung (abstract $sp depth) up to sp_depth, so each recursion
  /// level gets its own sp-relative envelope instead of one joined frame.
  void enter_call(u32 ctx, Addr entry, const State& s) {
    if (context_depth == 0) {
      propagate(ctx, entry, s);
      return;
    }
    const u32 rung = (field_sensitive && sp_depth > 0)
                         ? recursion_rung(ctx, entry)
                         : 0;
    const bool recursive = rung >= 1;
    const ArgTuple args = {s[isa::kA0], s[isa::kA1], s[isa::kA2], s[isa::kA3]};
    bool all_unknown = true;
    for (const AbsVal& a : args) {
      if (a.kind != Kind::kUnknown) all_unknown = false;
    }
    if (all_unknown && !recursive) {
      // No argument precision to preserve: the joined context *is* this
      // context (not a fallback).
      propagate(0, entry, s);
      return;
    }
    const CtxKey key{entry, args, recursive ? rung : 0};
    if (const auto it = context_index.find(key); it != context_index.end()) {
      propagate(it->second, entry, s);  // memo hit
      return;
    }
    const bool admit =
        recursive ? (rung <= sp_depth && contexts_cloned < max_context_clones)
                  : (contexts[ctx].depth < context_depth &&
                     contexts_cloned < max_context_clones);
    if (!admit) {
      context_fallbacks += 1;
      propagate(0, entry, s);
      return;
    }
    // Rung clones keep the parent's argument-tuple depth: recursion depth
    // is budgeted by sp_depth, not by context_depth.
    const u32 depth =
        recursive ? contexts[ctx].depth : contexts[ctx].depth + 1;
    const u32 c = new_context(entry, args, depth, recursive ? rung : 0,
                              static_cast<i32>(ctx));
    context_index.emplace(key, c);
    contexts_cloned += 1;
    if (recursive) sp_contexts += 1;
    propagate(c, entry, s);
  }

  void enqueue(u32 ctx, u32 index) {
    if (!queued[ctx][index]) {
      queued[ctx][index] = true;
      worklist.emplace_back(ctx, index);
    }
  }

  void propagate(u32 ctx, Addr target, const State& s) {
    if (infeasible(s)) return;
    if (!in_region(target)) {
      left_region = true;
      return;
    }
    const BasicBlock* b = cfg.block_at(target);
    if (b == nullptr || b->start != target) return;  // mid-block/out-of-text
    const u32 i = b->index;
    if (!has_state[ctx][i]) {
      in_state[ctx][i] = s;
      has_state[ctx][i] = true;
      enqueue(ctx, i);
      return;
    }
    State merged;
    for (u8 r = 0; r < isa::kNumRegs; ++r) {
      merged[r] = join(in_state[ctx][i][r], s[r], field_sensitive);
      // Induction filter: a residue grid born purely from joining dense or
      // singleton inputs is kept only when a recorded loop-carried step
      // explains it; otherwise it is two unrelated constants meeting at a
      // join point and the dense hull is the honest value.  Grids that
      // arrived through transfer (shift/mul) or an already-strided input
      // pass through untouched.
      if (field_sensitive && induction != nullptr && merged[r].stride >= 2 &&
          in_state[ctx][i][r].stride < 2 && s[r].stride < 2 &&
          !induction->explains(r, merged[r].stride)) {
        merged[r] = make(merged[r].kind, merged[r].lo, merged[r].hi, 1);
      }
    }
    merged[0] = abs_const(0);
    if (merged == in_state[ctx][i]) return;
    // Interprocedural mode widens only at join points (>= 2 in-edges):
    // every reachable CFG cycle contains one (a cycle needs an entry edge
    // from outside plus its in-cycle edge), so the fixpoint still
    // terminates, while single-predecessor loop-body blocks keep the
    // refined bounds flowing out of the header's branch instead of
    // re-widening them.  Flat mode keeps the PR 3 behavior: every
    // still-changing register goes straight to Unknown at the budget.
    const bool widen_here =
        visits[ctx][i] >= kMaxBlockVisits &&
        (!interprocedural || in_degree[i] >= 2);
    if (widen_here) {
      for (u8 r = 1; r < isa::kNumRegs; ++r) {
        if (merged[r] == in_state[ctx][i][r]) continue;
        u8& strike = strikes[ctx][i][r];
        const u8 max_strikes = static_cast<u8>(std::min<std::size_t>(
            200, 2 * (thresholds != nullptr ? thresholds->size() : 0) + 4));
        if (interprocedural && strike < max_strikes &&
            merged[r].kind != Kind::kUnknown &&
            merged[r].kind == in_state[ctx][i][r].kind) {
          // Kind-preserving threshold widening: every widening event jumps
          // the changing bound(s) to the nearest enclosing materializable
          // constant, climbing one rung of the threshold ladder at a time
          // (a bound that outgrows the largest threshold lands on the
          // domain limit); refine_edge re-narrows loop indices from their
          // branch bounds on the way back in.  Each event strictly moves a
          // bound within the finite threshold set, so at most
          // 2*|thresholds|+2 events fire per (block, register); the strike
          // cap is a defensive backstop on top of that.
          AbsVal w = merged[r];
          // Stride-preserving widening: jump the changing bound(s) to the
          // threshold, then realign onto the value's own residue grid —
          // lo moves down to the last on-grid point >= the threshold, hi up
          // to the first on-grid point <= it, so the widened set still
          // covers the merged set (lo' <= lo, hi' >= hi, both on-grid) and
          // a dense value (stride 1) reproduces the plain threshold jump.
          const i64 ws = std::max<i64>(w.stride, 1);
          if (w.lo != in_state[ctx][i][r].lo) {
            const i64 t = threshold_lo(w.lo);
            w.lo -= ((w.lo - t) / ws) * ws;
          }
          if (w.hi != in_state[ctx][i][r].hi) {
            const i64 t = threshold_hi(w.hi);
            w.hi = w.lo + ((t - w.lo) / ws) * ws;
          }
          merged[r] = make(w.kind, w.lo, w.hi, w.stride);
        } else {
          merged[r] = AbsVal{};
        }
        if (strike < max_strikes) strike += 1;
      }
      if (merged == in_state[ctx][i]) return;
    }
    in_state[ctx][i] = merged;
    enqueue(ctx, i);
  }

  void run(Addr root, const State& root_in) {
    const size_t n = cfg.blocks.size();
    contexts.clear();
    context_index.clear();
    contexts_cloned = 0;
    context_fallbacks = 0;
    spawn_contexts = 0;
    sp_contexts = 0;
    in_state.clear();
    has_state.clear();
    visits.clear();
    queued.clear();
    strikes.clear();
    contexts.push_back(CtxInfo{});  // the joined context 0
    in_state.emplace_back(n);
    has_state.emplace_back(n, false);
    visits.emplace_back(n, 0);
    queued.emplace_back(n, false);
    strikes.emplace_back(n);
    in_degree.assign(n, 0);
    left_region = false;

    // In-edge counts feed the widening criterion.  This mirrors step()'s
    // propagation targets (over-counting is harmless — it only adds
    // widening points).
    auto bump = [&](Addr a) {
      const BasicBlock* b = cfg.block_at(a);
      if (b != nullptr && b->start == a) in_degree[b->index] += 1;
    };
    bump(root);
    for (Addr addr : cfg.address_taken) bump(addr);
    for (const BasicBlock& block : cfg.blocks) {
      if (block.exit == BlockExit::kReturn) continue;
      for (Addr succ : block.successors) bump(succ);
      const isa::Instr term =
          isa::decode(program.text_word(block.terminator_pc()));
      if (block.exit == BlockExit::kCall ||
          (block.exit == BlockExit::kIndirect && term.op == isa::Op::kJalr)) {
        bump(block.terminator_pc() + 4);
      }
    }

    propagate(0, root, root_in);
    if (region_hi == 0) {
      // Program-wide pass: address-taken targets enter execution without a
      // static edge (thread entries, jump tables) and are extra roots.
      for (Addr addr : cfg.address_taken) {
        State s = root_state();
        if (context_depth > 0 && spawn_bindings != nullptr) {
          const auto it = spawn_bindings->find(addr);
          if (it != spawn_bindings->end() &&
              it->second.kind != Kind::kUnknown) {
            // Spawn context: every unexplained entry to this address is a
            // thread create (gated in compute_footprint), so the root $a0
            // is the join of the create sites' $a1 arguments.  Enter via
            // the clone machinery so joined-context fallback entries don't
            // dilute the binding.
            s[isa::kA0] = it->second;
            spawn_contexts += 1;
            enter_call(0, addr, s);
            continue;
          }
        }
        propagate(0, addr, s);
      }
    }
    while (!worklist.empty()) {
      const auto [c, i] = worklist.front();
      worklist.pop_front();
      queued[c][i] = false;
      step(c, cfg.blocks[i]);
    }
  }

  void step(u32 ctx, const BasicBlock& block) {
    visits[ctx][block.index] += 1;
    State out = in_state[ctx][block.index];
    for (Addr pc = block.start; pc + 4 < block.end; pc += 4) {
      transfer(isa::decode(program.text_word(pc)), out, field_sensitive);
    }
    const isa::Instr term = isa::decode(program.text_word(block.terminator_pc()));

    switch (block.exit) {
      case BlockExit::kFallThrough: {
        transfer(term, out, field_sensitive);
        propagate(ctx, block.end, out);
        break;
      }
      case BlockExit::kBranch: {
        const Addr target = isa::branch_target(block.terminator_pc(), term);
        const Addr fall = block.end;
        for (Addr succ : block.successors) {
          State edge = out;
          if (target != fall) refine_edge(term, /*taken=*/succ == target, edge);
          propagate(ctx, succ, edge);
        }
        break;
      }
      case BlockExit::kJump: {
        for (Addr succ : block.successors) propagate(ctx, succ, out);
        break;
      }
      case BlockExit::kCall: {
        const Addr ret = block.terminator_pc() + 4;
        if (enter_callees) {
          // Into the callee with the return address bound — per-context
          // clone when the argument tuple and budgets allow.
          State callee = out;
          callee[isa::kRa] = abs_const(from_u32(static_cast<u32>(ret)));
          for (Addr succ : block.successors) enter_call(ctx, succ, callee);
        }
        // ...and across the call.  Candidates proven to never reach a
        // return have no fall-through at all.
        if (may_return(block.successors)) {
          propagate(ctx, ret,
                    call_fallthrough(out, block.successors, ret, isa::kRa));
        }
        break;
      }
      case BlockExit::kIndirect: {
        if (term.op == isa::Op::kJalr) {
          const Addr ret = block.terminator_pc() + 4;
          if (enter_callees) {
            State callee = out;
            callee[isa::kRa] = AbsVal{};
            callee[term.rd] = abs_const(from_u32(static_cast<u32>(ret)));
            // Indirect calls never clone: the candidate set is a joined
            // guess already, so the callee enters the joined context.
            for (Addr succ : block.successors) {
              if (context_depth > 0) context_fallbacks += 1;
              propagate(0, succ, callee);
            }
          }
          if (may_return(block.successors)) {
            propagate(ctx, ret,
                      call_fallthrough(out, block.successors, ret, term.rd));
          }
        } else {
          // Computed jump (jr non-ra).  Unresolved: in summary mode the
          // function's control can go anywhere — it cannot be summarized.
          if (block.successors.empty() && region_hi != 0) left_region = true;
          for (Addr succ : block.successors) propagate(ctx, succ, out);
        }
        break;
      }
      case BlockExit::kReturn: {
        // Return edges are modeled at the call site (the kCall
        // fall-through), not here: propagating the callee's exit state to
        // every return site would mix unrelated call chains.
        break;
      }
      case BlockExit::kSyscall: {
        // The CFG keeps a fall-through edge after every syscall, but a v0
        // pinned to a no-return syscall (1 = exit, 7 = thread-exit) proves
        // the edge infeasible — following it would seed the next function's
        // entry with the exiting caller's junk state.  Pruned only in
        // context mode so depth 0 stays bit-for-bit the historical pass.
        if (context_depth > 0 && out[isa::kV0].kind == Kind::kAbs &&
            out[isa::kV0].lo == out[isa::kV0].hi &&
            (out[isa::kV0].lo == 1 || out[isa::kV0].lo == 7)) {
          break;
        }
        State next = out;
        next[isa::kV0] = AbsVal{};
        next[isa::kV1] = AbsVal{};
        for (Addr succ : block.successors) propagate(ctx, succ, next);
        break;
      }
    }
  }
};

/// Computes one function's parametric summary against the current summary
/// map (Gauss-Seidel: callee entries may hold this round's values already).
Summary summarize_function(const isa::Program& program,
                           const ControlFlowGraph& cfg, Addr lo, Addr hi,
                           const SummaryMap& summaries,
                           const std::vector<i64>& thresholds, bool field,
                           const InductionSteps* induction) {
  Summary sum;
  sum.entry = lo;

  FixpointPass pass{program, cfg};
  pass.interprocedural = true;
  pass.summaries = &summaries;
  pass.region_lo = lo;
  pass.region_hi = hi;
  pass.enter_callees = false;
  pass.thresholds = &thresholds;
  pass.field_sensitive = field;
  pass.induction = induction;
  pass.run(lo, root_state());

  const BasicBlock* entry_block = cfg.block_at(lo);
  const bool entry_ok = entry_block != nullptr && entry_block->start == lo &&
                        pass.has_state[0][entry_block->index];
  if (pass.left_region || !entry_ok) {
    sum.summarized = false;  // callers fall back to the flat call model
    return sum;
  }
  sum.summarized = true;

  // Syntactic clobber mask over the whole region, independent of local
  // reachability: any register the region can write counts as clobbered
  // unless proven restored below.
  for (const BasicBlock& block : cfg.blocks) {
    if (block.start < lo || block.start >= hi) continue;
    for (Addr pc = block.start; pc < block.end; pc += 4) {
      sum.clobbered |= write_mask(isa::decode(program.text_word(pc)));
    }
  }

  const u32 cs_mask = caller_saved_mask();
  bool sp_restored = true;
  bool gp_restored = true;
  bool first_return = true;

  auto instantiate_envelope = [&](bool has, i64 elo, i64 ehi,
                                  const AbsVal& base) {
    if (!has) return;
    if (base.kind == Kind::kUnknown) {
      sum.unknown += 1;
      return;
    }
    const i64 rlo = base.lo + elo;
    const i64 rhi = base.hi + ehi;
    if (rhi - rlo > kMaxSpanBytes || rlo < kMinVal || rhi > kMaxVal ||
        (base.kind == Kind::kAbs && rlo < 0)) {
      sum.unknown += 1;
      return;
    }
    switch (base.kind) {
      case Kind::kAbs:
        add_page_range(sum.pages, static_cast<Addr>(rlo), static_cast<Addr>(rhi));
        break;
      case Kind::kSp:
        record_envelope(sum.has_sp, sum.sp_lo, sum.sp_hi, rlo, rhi);
        break;
      case Kind::kGp:
        record_envelope(sum.has_gp, sum.gp_lo, sum.gp_hi, rlo, rhi);
        break;
      default:
        break;
    }
  };

  for (const BasicBlock& block : cfg.blocks) {
    if (block.start < lo || block.start >= hi) continue;
    if (!pass.has_state[0][block.index]) continue;  // unreached from the entry
    State s = pass.in_state[0][block.index];
    for (Addr pc = block.start; pc < block.end; pc += 4) {
      const isa::Instr in = isa::decode(program.text_word(pc));
      if (const u32 size = isa::access_size(in.op); size != 0) {
        const SiteRange r = classify_site(s[in.rs], in.imm, size);
        switch (r.base) {
          case AddressBase::kAbsolute:
            add_page_range_strided(sum.pages, static_cast<Addr>(r.lo),
                                   static_cast<Addr>(r.hi), r.stride, r.size);
            if (in.op_class() == isa::OpClass::kStore) {
              add_page_range_strided(sum.store_pages, static_cast<Addr>(r.lo),
                                     static_cast<Addr>(r.hi), r.stride, r.size);
            }
            break;
          case AddressBase::kStack:
            record_envelope(sum.has_sp, sum.sp_lo, sum.sp_hi, r.lo, r.hi);
            break;
          case AddressBase::kGlobal:
            record_envelope(sum.has_gp, sum.gp_lo, sum.gp_hi, r.lo, r.hi);
            break;
          default:
            sum.unknown += 1;
            break;
        }
      }
      if (pc + 4 < block.end) transfer(in, s, field);
    }
    // `s` is now the state before the terminator (terminators have no
    // register transfer of their own).
    const isa::Instr term = isa::decode(program.text_word(block.terminator_pc()));
    const bool is_call =
        block.exit == BlockExit::kCall ||
        (block.exit == BlockExit::kIndirect && term.op == isa::Op::kJalr);
    if (is_call) {
      if (block.successors.empty()) {
        // Unresolved indirect call: flat model (full caller-saved clobber,
        // footprint unknown, assumed to return).
        sum.unknown += 1;
        sum.clobbered |= cs_mask;
      }
      for (Addr t : block.successors) {
        const auto it = summaries.find(t);
        const Summary* c = (it == summaries.end()) ? nullptr : &it->second;
        if (c == nullptr || !c->summarized) {
          sum.unknown += 1;
          sum.clobbered |= cs_mask;
          continue;
        }
        // Instantiate: pages carry over, envelopes rebase by this call
        // site's sp/gp, unknown contributions accumulate, clobbers are
        // transitive.
        sum.clobbered |= c->clobbered;
        sum.unknown += c->unknown;
        sum.pages.insert(c->pages.begin(), c->pages.end());
        sum.store_pages.insert(c->store_pages.begin(), c->store_pages.end());
        instantiate_envelope(c->has_sp, c->sp_lo, c->sp_hi, s[isa::kSp]);
        instantiate_envelope(c->has_gp, c->gp_lo, c->gp_hi, s[isa::kGp]);
      }
    }
    if (block.exit == BlockExit::kReturn) {
      sum.returns = true;
      if (!(s[isa::kSp] == make(Kind::kSp, 0, 0))) sp_restored = false;
      if (!(s[isa::kGp] == make(Kind::kGp, 0, 0))) gp_restored = false;
      sum.ret_v0 =
          first_return ? s[isa::kV0] : join(sum.ret_v0, s[isa::kV0], field);
      sum.ret_v1 =
          first_return ? s[isa::kV1] : join(sum.ret_v1, s[isa::kV1], field);
      first_return = false;
    }
  }

  // Arithmetic restore proof: sp/gp bits clear only when every reachable
  // return leaves them exactly at their entry values.
  if (sum.returns && sp_restored) sum.clobbered &= ~(1u << isa::kSp);
  if (sum.returns && gp_restored) sum.clobbered &= ~(1u << isa::kGp);
  if (!sum.returns) {
    sum.ret_v0 = AbsVal{};
    sum.ret_v1 = AbsVal{};
  }
  // Saturate the unknown-contribution count: a recursive function feeds its
  // own count back through the self-call and would otherwise grow it by one
  // every fixpoint round, never converging.  The count is diagnostic (the
  // page/envelope/clobber components carry the soundness); capping it keeps
  // the summary monotone AND bounded.
  constexpr u32 kMaxSummaryUnknown = 8;
  sum.unknown = std::min(sum.unknown, kMaxSummaryUnknown);
  return sum;
}

/// Bottom-up fixpoint over the call graph.  Bottom-initialized summaries
/// (touch nothing, return nowhere) iterate Gauss-Seidel until stable; the
/// summary components grow monotonically except envelopes and return
/// values under recursion (a self-call rebasing its own frame grows them
/// every round), which a small widening ladder drops after a few moves.
SummaryMap compute_summaries(const isa::Program& program,
                             const ControlFlowGraph& cfg,
                             const std::set<Addr>& entries,
                             const std::vector<i64>& thresholds, bool field,
                             const InductionSteps* induction) {
  SummaryMap summaries;
  struct Region {
    Addr lo;
    Addr hi;
  };
  std::vector<Region> regions;
  Addr text_end = 0;
  for (const BasicBlock& b : cfg.blocks) text_end = std::max(text_end, b.end);
  const std::vector<Addr> sorted(entries.begin(), entries.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Addr rlo = sorted[i];
    const Addr rhi = (i + 1 < sorted.size()) ? sorted[i + 1] : text_end;
    if (rlo >= rhi) continue;  // entry outside the decoded text
    regions.push_back(Region{rlo, rhi});
    Summary bottom;
    bottom.entry = rlo;
    bottom.summarized = true;
    summaries.emplace(rlo, std::move(bottom));
  }

  constexpr u32 kMaxComponentMoves = 3;
  std::map<Addr, u32> sp_moves;
  std::map<Addr, u32> gp_moves;
  std::map<Addr, u32> ret_moves;
  std::set<Addr> sp_dropped;
  std::set<Addr> gp_dropped;
  std::set<Addr> ret_dropped;
  // A summary that keeps changing after its envelope/return components were
  // already dropped is feeding on itself through a recursion cycle (e.g. its
  // unknown-site count grows by its own previous value every round).  Pin
  // such a function to unsummarized — callers fall back to the flat call
  // model for it — instead of letting it drag the whole map to the global
  // bail-out below.
  // Generous: every component is individually bounded (monotone masks and
  // page sets, ladder-dropped envelopes, the saturated unknown count), so a
  // converging summary moves at most a few dozen times; only genuine
  // divergence can exceed this.
  const u32 max_summary_moves = static_cast<u32>(regions.size()) + 48;
  std::map<Addr, u32> total_moves;
  std::set<Addr> force_flat;

  const size_t rounds_cap = 3 * regions.size() + 8;
  bool stable = false;
  for (size_t round = 0; round < rounds_cap && !stable; ++round) {
    stable = true;
    // Helpers usually sit after their callers, so reverse address order
    // makes the first sweep roughly bottom-up.
    for (auto it = regions.rbegin(); it != regions.rend(); ++it) {
      Summary& cur = summaries.at(it->lo);
      if (force_flat.count(it->lo) != 0) continue;  // pinned unsummarized
      Summary next = summarize_function(program, cfg, it->lo, it->hi,
                                        summaries, thresholds, field, induction);
      if (next.summarized) {
        if (sp_dropped.count(it->lo) != 0 && next.has_sp) {
          next.has_sp = false;
          next.unknown += 1;
        }
        if (gp_dropped.count(it->lo) != 0 && next.has_gp) {
          next.has_gp = false;
          next.unknown += 1;
        }
        if (ret_dropped.count(it->lo) != 0) {
          next.ret_v0 = AbsVal{};
          next.ret_v1 = AbsVal{};
        }
        if (next.has_sp &&
            (!cur.has_sp || next.sp_lo != cur.sp_lo || next.sp_hi != cur.sp_hi)) {
          if (++sp_moves[it->lo] > kMaxComponentMoves) {
            sp_dropped.insert(it->lo);
            next.has_sp = false;
            next.unknown += 1;
          }
        }
        if (next.has_gp &&
            (!cur.has_gp || next.gp_lo != cur.gp_lo || next.gp_hi != cur.gp_hi)) {
          if (++gp_moves[it->lo] > kMaxComponentMoves) {
            gp_dropped.insert(it->lo);
            next.has_gp = false;
            next.unknown += 1;
          }
        }
        if (!(next.ret_v0 == cur.ret_v0) || !(next.ret_v1 == cur.ret_v1)) {
          if (++ret_moves[it->lo] > kMaxComponentMoves) {
            ret_dropped.insert(it->lo);
            next.ret_v0 = AbsVal{};
            next.ret_v1 = AbsVal{};
          }
        }
      }
      if (next != cur) {
        if (++total_moves[it->lo] > max_summary_moves) {
          force_flat.insert(it->lo);
          next = Summary{};
          next.entry = it->lo;
        }
        cur = next;
        stable = false;
      }
    }
  }
  if (!stable) {
    // The safety net should be unreachable (each component is monotone or
    // ladder-bounded), but if it ever trips, fall back to the flat model.
    for (auto& [entry, sum] : summaries) {
      sum = Summary{};
      sum.entry = entry;
    }
  }
  return summaries;
}

/// Scans a finished pass for thread-create syscall sites (`$v0 == 6` at the
/// syscall, the guest OS `Sys::kThreadCreate` code) and joins their `$a1`
/// argument per spawn target.  Sets gate_ok = false — the caller then keeps
/// the unbound run — when any reachable construct could enter an
/// address-taken root with a state the harvest cannot account for: an
/// unresolved indirect jump/call (could land anywhere with any state), a
/// syscall whose `$v0` is not a statically known constant (could be a
/// create the harvest misattributes), or a create whose target `$a0` is not
/// a known address-taken constant.
std::map<Addr, AbsVal> harvest_spawn_bindings(const FixpointPass& pass,
                                              const isa::Program& program,
                                              const ControlFlowGraph& cfg,
                                              bool& gate_ok) {
  std::map<Addr, AbsVal> binding;
  gate_ok = true;
  for (const BasicBlock& block : cfg.blocks) {
    bool live = false;
    for (size_t c = 0; c < pass.contexts.size(); ++c) {
      if (pass.has_state[c][block.index]) {
        live = true;
        break;
      }
    }
    if (!live) continue;
    if (block.exit == BlockExit::kIndirect && !block.indirect_resolved) {
      gate_ok = false;
      return {};
    }
    if (block.exit != BlockExit::kSyscall) continue;
    for (size_t c = 0; c < pass.contexts.size(); ++c) {
      if (!pass.has_state[c][block.index]) continue;
      State s = pass.in_state[c][block.index];
      for (Addr pc = block.start; pc + 4 < block.end; pc += 4) {
        transfer(isa::decode(program.text_word(pc)), s, pass.field_sensitive);
      }
      const AbsVal v0 = s[isa::kV0];
      if (!(v0.kind == Kind::kAbs && is_singleton(v0))) {
        gate_ok = false;
        return {};
      }
      if (v0.lo != 6) continue;  // not a thread create
      const AbsVal a0 = s[isa::kA0];
      if (!(a0.kind == Kind::kAbs && is_singleton(a0) && a0.lo >= 0 &&
            cfg.address_taken.count(static_cast<Addr>(a0.lo)) != 0)) {
        gate_ok = false;
        return {};
      }
      const Addr target = static_cast<Addr>(a0.lo);
      const auto it = binding.find(target);
      binding[target] = (it == binding.end())
                            ? s[isa::kA1]
                            : join(it->second, s[isa::kA1], pass.field_sensitive);
    }
  }
  return binding;
}

}  // namespace

std::vector<Addr> PageFootprint::checked_pcs() const {
  std::vector<Addr> pcs;
  for (const AccessSite& site : sites) {
    if (site.precision != AccessPrecision::kUnknown) pcs.push_back(site.pc);
  }
  std::sort(pcs.begin(), pcs.end());
  return pcs;
}

PageFootprint compute_footprint(const isa::Program& program,
                                const ControlFlowGraph& cfg,
                                const AnalysisOptions& options) {
  PageFootprint fp;
  fp.interprocedural = options.interprocedural_footprint;
  if (cfg.blocks.empty()) return fp;

  // Function-entry candidates, as in the CFG's return-site inference.
  std::set<Addr> entries;
  entries.insert(program.entry);
  for (const CallEdge& call : cfg.calls) entries.insert(call.callee);
  for (Addr addr : cfg.address_taken) entries.insert(addr);
  auto function_of = [&](Addr pc) {
    auto it = entries.upper_bound(pc);
    return (it == entries.begin()) ? program.entry : *std::prev(it);
  };

  // --- Parametric per-function summaries (interprocedural mode). ------
  const bool field = options.field_sensitive;
  fp.field_sensitive = field;
  InductionSteps induction;
  if (field) induction = collect_induction(program, cfg);
  const InductionSteps* ind = field ? &induction : nullptr;
  SummaryMap summaries;
  std::vector<i64> thresholds;
  if (options.interprocedural_footprint) {
    thresholds = collect_thresholds(program, cfg);
    summaries = compute_summaries(program, cfg, entries, thresholds, field, ind);
  }

  // --- Program-wide fixpoint over block in-states.  Still enters callees
  // with the caller's context (which keeps argument-register precision
  // inside helpers) — per-(callee, argument-tuple) clones when
  // context_depth > 0; summaries refine what survives a call's
  // fall-through and whether the fall-through is reachable at all. ------
  const u32 effective_depth =
      options.interprocedural_footprint ? options.context_depth : 0;
  auto run_pass = [&](const std::map<Addr, AbsVal>* bindings) {
    auto p = std::make_unique<FixpointPass>(program, cfg);
    p->interprocedural = options.interprocedural_footprint;
    p->summaries = options.interprocedural_footprint ? &summaries : nullptr;
    p->enter_callees = true;
    if (options.interprocedural_footprint) p->thresholds = &thresholds;
    p->context_depth = effective_depth;
    p->spawn_bindings = bindings;
    p->field_sensitive = field;
    p->sp_depth = field ? options.field_sp_depth : 0;
    p->induction = ind;
    p->run(program.entry, root_state());
    return p;
  };

  // Probe run: context clones active, no spawn bindings yet.
  std::unique_ptr<FixpointPass> pass = run_pass(nullptr);

  // Spawn-context rounds: harvest thread-create argument bindings from the
  // probe, re-run with the thread roots' $a0 bound, and accept the bound
  // run only once the create arguments it observes are covered by the
  // binding it assumed (a post-fixpoint of the spawn semantics, hence
  // sound on its own).  A gate failure or an unstable ladder keeps the
  // unbound probe run.
  if (effective_depth > 0) {
    bool gate_ok = true;
    std::map<Addr, AbsVal> binding =
        harvest_spawn_bindings(*pass, program, cfg, gate_ok);
    bool any_bound = false;
    for (const auto& [addr, v] : binding) {
      (void)addr;
      if (v.kind != Kind::kUnknown) any_bound = true;
    }
    if (gate_ok && any_bound) {
      for (u32 round = 0; round < kMaxSpawnRounds; ++round) {
        std::unique_ptr<FixpointPass> bound = run_pass(&binding);
        bool gate2 = true;
        const std::map<Addr, AbsVal> observed =
            harvest_spawn_bindings(*bound, program, cfg, gate2);
        if (!gate2) break;  // keep the probe run
        bool stable = true;
        for (const auto& [addr, v] : observed) {
          const auto it = binding.find(addr);
          // A target absent from the assumption (or assumed Unknown) ran
          // with the plain Unknown-$a0 root: sound, nothing to re-check.
          if (it == binding.end() || it->second.kind == Kind::kUnknown) {
            continue;
          }
          const AbsVal widened = join(it->second, v, field);
          if (!(widened == it->second)) {
            stable = false;
            it->second = widened;
          }
        }
        if (stable) {
          pass = std::move(bound);
          break;
        }
      }
    }
  }
  fp.context_depth = effective_depth;
  fp.contexts_cloned = pass->contexts_cloned;
  fp.context_fallbacks = pass->context_fallbacks;
  fp.spawn_contexts = pass->spawn_contexts;
  fp.sp_contexts = pass->sp_contexts;

  // --- Collect access sites from reachable blocks. --------------------
  std::set<u32> pages;
  std::set<u32> store_pages;
  struct FnAcc {
    std::set<u32> pages;
    std::set<u32> store_pages;
    u32 exact = 0, over = 0, unknown = 0;
  };
  std::map<Addr, FnAcc> fn_acc;
  std::vector<PageFootprint::SitePages> ctx_pages;

  const size_t nctx = pass->contexts.size();
  for (const BasicBlock& block : cfg.blocks) {
    if (!block.reachable) continue;
    // Every execution entering this block is covered by the states of the
    // contexts that have one.  No state in any context means every edge
    // into the block was proven infeasible (the roots cover the entry and
    // all address-taken targets), i.e. the block is dead code under the
    // concrete semantics too — its sites can never commit, so they
    // contribute nothing to the footprint.
    std::vector<State> states;
    for (size_t c = 0; c < nctx; ++c) {
      if (pass->has_state[c][block.index]) {
        states.push_back(pass->in_state[c][block.index]);
      }
    }
    if (states.empty()) continue;
    for (Addr pc = block.start; pc < block.end; pc += 4) {
      const isa::Instr in = isa::decode(program.text_word(pc));
      if (const u32 size = isa::access_size(in.op); size != 0) {
        const bool store = in.op_class() == isa::OpClass::kStore;
        AccessSite site;
        site.pc = pc;
        site.is_store = store;
        std::vector<SiteRange> ranges;
        ranges.reserve(states.size());
        bool any_unknown = false;
        for (const State& s : states) {
          const SiteRange r = classify_site(s[in.rs], in.imm, size);
          if (r.base == AddressBase::kUnknown) any_unknown = true;
          ranges.push_back(r);
        }
        if (!any_unknown) {
          // Merge the per-context ranges into the single-range hull the
          // site list carries, folding pages/envelopes per context range so
          // the global sets stay tight (the hull may span the gap between
          // disjoint per-context buffers).
          const AddressBase base0 = ranges[0].base;
          bool same_base = true;
          bool all_exact_same = true;
          i64 lo = ranges[0].lo;
          i64 hi = ranges[0].hi;
          for (const SiteRange& r : ranges) {
            if (r.base != base0) same_base = false;
            if (r.precision != AccessPrecision::kExact || r.lo != ranges[0].lo ||
                r.hi != ranges[0].hi) {
              all_exact_same = false;
            }
            lo = std::min(lo, r.lo);
            hi = std::max(hi, r.hi);
          }
          if (same_base) {
            site.base = base0;
            site.precision = all_exact_same ? AccessPrecision::kExact
                                            : AccessPrecision::kOver;
            site.lo = lo;
            site.hi = hi;
            // Merged residue grid across contexts: the gcd of every
            // context's stride and anchor distance (the same argument as
            // the abstract join) — exported when it is an actual grid.
            if (field) {
              i64 g = 0;
              for (const SiteRange& r : ranges) {
                g = std::gcd(g, r.stride);
                g = std::gcd(g, r.lo >= ranges[0].lo ? r.lo - ranges[0].lo
                                                     : ranges[0].lo - r.lo);
              }
              site.stride = g >= 2 ? g : 0;
            }
          } else {
            // Resolved in every context but the bases differ: the hull is
            // not expressible as one (base, range).  The site counts as
            // over-approximate and is checked through the per-pc page
            // table below (plus the runtime stack pages for the
            // stack-relative components).
            site.base = AddressBase::kUnknown;
            site.precision = AccessPrecision::kOver;
          }
          FnAcc& fn = fn_acc[function_of(pc)];
          std::set<u32> pc_page_set;
          bool expressible = true;  // per-pc table can carry every component
          for (const SiteRange& r : ranges) {
            switch (r.base) {
              case AddressBase::kAbsolute:
                add_page_range_strided(pages, static_cast<Addr>(r.lo),
                                       static_cast<Addr>(r.hi), r.stride,
                                       r.size);
                add_page_range_strided(fn.pages, static_cast<Addr>(r.lo),
                                       static_cast<Addr>(r.hi), r.stride,
                                       r.size);
                if (store) {
                  add_page_range_strided(store_pages, static_cast<Addr>(r.lo),
                                         static_cast<Addr>(r.hi), r.stride,
                                         r.size);
                  add_page_range_strided(fn.store_pages,
                                         static_cast<Addr>(r.lo),
                                         static_cast<Addr>(r.hi), r.stride,
                                         r.size);
                }
                add_page_range_strided(pc_page_set, static_cast<Addr>(r.lo),
                                       static_cast<Addr>(r.hi), r.stride,
                                       r.size);
                break;
              case AddressBase::kStack:
                record_envelope(fp.has_sp_range, fp.sp_lo, fp.sp_hi, r.lo,
                                r.hi);
                // Covered per-pc by the runtime-registered stack pages.
                break;
              case AddressBase::kGlobal:
                record_envelope(fp.has_gp_range, fp.gp_lo, fp.gp_hi, r.lo,
                                r.hi);
                if (r.lo >= 0) {
                  // Folds at the initial gp = 0, the loader convention.
                  add_page_range_strided(pc_page_set, static_cast<Addr>(r.lo),
                                         static_cast<Addr>(r.hi), r.stride,
                                         r.size);
                } else {
                  expressible = false;
                }
                break;
              default:
                break;
            }
          }
          // Emit a per-pc entry when it is strictly tighter than what the
          // global check can see: mixed-base sites (whose hull the site
          // list cannot carry) and same-base sites whose per-context page
          // union has gaps the contiguous hull would whitelist.
          if (expressible && !pc_page_set.empty()) {
            bool want = !same_base;
            if (same_base && lo >= 0 &&
                (base0 == AddressBase::kAbsolute ||
                 base0 == AddressBase::kGlobal)) {
              const u64 hull_pages =
                  static_cast<u64>(mem::page_of(static_cast<Addr>(hi))) -
                  mem::page_of(static_cast<Addr>(lo)) + 1;
              want = pc_page_set.size() < hull_pages;
            }
            if (want) {
              PageFootprint::SitePages entry;
              entry.pc = pc;
              entry.is_store = store;
              entry.pages.assign(pc_page_set.begin(), pc_page_set.end());
              ctx_pages.push_back(std::move(entry));
            }
          }
        }

        FnAcc& fn = fn_acc[function_of(pc)];
        switch (site.precision) {
          case AccessPrecision::kExact:
            fp.exact_sites += 1;
            fn.exact += 1;
            break;
          case AccessPrecision::kOver:
            fp.over_sites += 1;
            fn.over += 1;
            break;
          case AccessPrecision::kUnknown:
            fp.unknown_sites += 1;
            fn.unknown += 1;
            break;
        }
        fp.sites.push_back(site);
      }
      if (pc + 4 < block.end) {
        for (State& s : states) transfer(in, s, field);
      }
    }
  }

  fp.pages.assign(pages.begin(), pages.end());
  fp.store_pages.assign(store_pages.begin(), store_pages.end());
  for (auto& [entry, acc] : fn_acc) {
    FunctionFootprint fn;
    fn.entry = entry;
    fn.pages.assign(acc.pages.begin(), acc.pages.end());
    fn.store_pages.assign(acc.store_pages.begin(), acc.store_pages.end());
    fn.exact_sites = acc.exact;
    fn.over_sites = acc.over;
    fn.unknown_sites = acc.unknown;
    fp.functions.push_back(std::move(fn));
  }
  std::sort(fp.sites.begin(), fp.sites.end(),
            [](const AccessSite& a, const AccessSite& b) { return a.pc < b.pc; });
  std::sort(ctx_pages.begin(), ctx_pages.end(),
            [](const PageFootprint::SitePages& a,
               const PageFootprint::SitePages& b) { return a.pc < b.pc; });
  fp.context_pages = std::move(ctx_pages);

  for (const auto& [entry, sum] : summaries) {
    FunctionSummary out;
    out.entry = entry;
    out.summarized = sum.summarized;
    out.clobbered_regs = sum.clobbered;
    out.returns = sum.returns;
    out.pages.assign(sum.pages.begin(), sum.pages.end());
    out.store_pages.assign(sum.store_pages.begin(), sum.store_pages.end());
    out.has_sp_range = sum.has_sp;
    out.sp_lo = sum.sp_lo;
    out.sp_hi = sum.sp_hi;
    out.has_gp_range = sum.has_gp;
    out.gp_lo = sum.gp_lo;
    out.gp_hi = sum.gp_hi;
    out.unknown_sites = sum.unknown;
    fp.summaries.push_back(std::move(out));
  }
  return fp;
}

}  // namespace rse::analysis
