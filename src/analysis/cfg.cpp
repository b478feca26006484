#include "analysis/cfg.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "isa/semantics.hpp"

namespace rse::analysis {
namespace {

bool in_text(const isa::Program& p, Addr addr) {
  return addr >= p.text_base && addr < p.text_end() && (addr & 3u) == 0;
}

/// Text addresses materialized as constants: the assembler's `la`/wide-`li`
/// expansion is always an adjacent `lui rt, hi; ori rt, rt, lo` pair, and
/// jump tables live in the data segment as aligned `.word label` entries.
std::set<Addr> collect_address_taken(const isa::Program& p,
                                     const std::vector<isa::Instr>& decoded) {
  std::set<Addr> taken;
  for (std::size_t i = 0; i + 1 < decoded.size(); ++i) {
    const isa::Instr& hi = decoded[i];
    const isa::Instr& lo = decoded[i + 1];
    if (hi.op != isa::Op::kLui || lo.op != isa::Op::kOri) continue;
    if (lo.rt != hi.rt || lo.rs != hi.rt) continue;
    const Addr value = (static_cast<Addr>(static_cast<u32>(hi.imm)) << 16) |
                       (static_cast<u32>(lo.imm) & 0xFFFFu);
    if (in_text(p, value)) taken.insert(value);
  }
  for (std::size_t i = 0; i + 4 <= p.data.size(); i += 4) {
    const Addr value = static_cast<Addr>(p.data[i]) | (static_cast<Addr>(p.data[i + 1]) << 8) |
                       (static_cast<Addr>(p.data[i + 2]) << 16) |
                       (static_cast<Addr>(p.data[i + 3]) << 24);
    if (in_text(p, value)) taken.insert(value);
  }
  return taken;
}

bool ends_block(const isa::Instr& instr) {
  const isa::OpClass c = instr.op_class();
  return c == isa::OpClass::kBranch || c == isa::OpClass::kJump || c == isa::OpClass::kSyscall;
}

}  // namespace

const BasicBlock* ControlFlowGraph::block_at(Addr pc) const {
  auto it = std::upper_bound(blocks.begin(), blocks.end(), pc,
                             [](Addr a, const BasicBlock& b) { return a < b.start; });
  if (it == blocks.begin()) return nullptr;
  --it;
  return (pc >= it->start && pc < it->end) ? &*it : nullptr;
}

u32 ControlFlowGraph::reachable_blocks() const {
  u32 n = 0;
  for (const BasicBlock& b : blocks) n += b.reachable ? 1 : 0;
  return n;
}

ControlFlowGraph build_cfg(const isa::Program& program) {
  ControlFlowGraph cfg;
  cfg.text_base = program.text_base;
  cfg.text_end = program.text_end();
  if (program.text.empty()) return cfg;

  std::vector<isa::Instr> decoded(program.text.size());
  for (std::size_t i = 0; i < program.text.size(); ++i) {
    decoded[i] = isa::decode(program.text[i]);
  }
  cfg.address_taken = collect_address_taken(program, decoded);

  // ---- pass 1: leaders -----------------------------------------------------
  std::set<Addr> leaders;
  leaders.insert(program.entry);
  leaders.insert(cfg.text_base);
  for (Addr a : cfg.address_taken) leaders.insert(a);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const Addr pc = cfg.text_base + static_cast<Addr>(i * 4);
    const isa::Instr& instr = decoded[i];
    if (!ends_block(instr)) continue;
    if (pc + 4 < cfg.text_end) leaders.insert(pc + 4);
    switch (instr.op_class()) {
      case isa::OpClass::kBranch: {
        const Addr t = isa::branch_target(pc, instr);
        if (in_text(program, t)) leaders.insert(t);
        break;
      }
      case isa::OpClass::kJump:
        if (instr.op == isa::Op::kJ || instr.op == isa::Op::kJal) {
          const Addr t = isa::jump_target(instr);
          if (in_text(program, t)) leaders.insert(t);
        }
        break;
      default:
        break;
    }
  }

  // ---- pass 2: block partition and call edges ------------------------------
  std::vector<Addr> starts(leaders.begin(), leaders.end());
  starts.erase(std::remove_if(starts.begin(), starts.end(),
                              [&](Addr a) { return !in_text(program, a); }),
               starts.end());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    BasicBlock block;
    block.index = static_cast<u32>(i);
    block.start = starts[i];
    const Addr limit = i + 1 < starts.size() ? starts[i + 1] : cfg.text_end;
    Addr pc = block.start;
    while (pc + 4 < limit && !ends_block(decoded[(pc - cfg.text_base) / 4])) pc += 4;
    block.end = pc + 4;
    cfg.blocks.push_back(block);
  }

  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const isa::Instr& instr = decoded[i];
    if (instr.op != isa::Op::kJal) continue;
    const Addr pc = cfg.text_base + static_cast<Addr>(i * 4);
    cfg.calls.push_back({pc, isa::jump_target(instr), pc + 4});
  }

  // Function-entry candidates for return-edge inference: direct callees,
  // address-taken addresses, and the entry point.  Return sites group by the
  // nearest preceding candidate.
  std::set<Addr> function_entries;
  function_entries.insert(program.entry);
  for (const CallEdge& call : cfg.calls) {
    if (in_text(program, call.callee)) function_entries.insert(call.callee);
  }
  for (Addr a : cfg.address_taken) function_entries.insert(a);
  std::map<Addr, std::vector<Addr>> returns_by_entry;  // entry -> return sites
  for (const CallEdge& call : cfg.calls) {
    if (in_text(program, call.callee)) returns_by_entry[call.callee].push_back(call.return_site);
  }

  // ---- pass 3: successors --------------------------------------------------
  const std::vector<Addr> taken_list(cfg.address_taken.begin(), cfg.address_taken.end());
  for (BasicBlock& block : cfg.blocks) {
    const isa::Instr& term = decoded[(block.terminator_pc() - cfg.text_base) / 4];
    const Addr fallthrough = block.end;
    switch (term.op_class()) {
      case isa::OpClass::kBranch:
        block.exit = BlockExit::kBranch;
        block.successors.push_back(fallthrough);
        block.successors.push_back(isa::branch_target(block.terminator_pc(), term));
        break;
      case isa::OpClass::kJump:
        if (term.op == isa::Op::kJ) {
          block.exit = BlockExit::kJump;
          block.successors.push_back(isa::jump_target(term));
        } else if (term.op == isa::Op::kJal) {
          block.exit = BlockExit::kCall;
          block.successors.push_back(isa::jump_target(term));
        } else if (term.op == isa::Op::kJr && term.rs == isa::kRa) {
          block.exit = BlockExit::kReturn;
          // The containing function is the nearest preceding entry candidate;
          // its return sites are the jr's legal successors.  A function no
          // direct call reaches has an empty set: mark unresolved instead of
          // forbidding every target.
          auto entry = function_entries.upper_bound(block.terminator_pc());
          std::vector<Addr> sites;
          if (entry != function_entries.begin()) {
            --entry;
            auto found = returns_by_entry.find(*entry);
            if (found != returns_by_entry.end()) sites = found->second;
          }
          if (sites.empty()) {
            block.indirect_resolved = false;
          } else {
            block.successors = std::move(sites);
          }
        } else {
          // jr on a non-ra register or jalr: data-dependent target.  When the
          // program materializes text addresses anywhere (jump tables,
          // la-taken function pointers), that address-taken set is the legal
          // landing set (coarse-grained CFI); otherwise leave unresolved.
          block.exit = BlockExit::kIndirect;
          if (!taken_list.empty()) {
            block.successors = taken_list;
          } else {
            block.indirect_resolved = false;
          }
        }
        break;
      case isa::OpClass::kSyscall:
        block.exit = BlockExit::kSyscall;
        if (fallthrough < cfg.text_end) block.successors.push_back(fallthrough);
        break;
      default:
        block.exit = BlockExit::kFallThrough;
        if (fallthrough < cfg.text_end) block.successors.push_back(fallthrough);
        break;
    }
    std::sort(block.successors.begin(), block.successors.end());
    block.successors.erase(std::unique(block.successors.begin(), block.successors.end()),
                           block.successors.end());
  }

  // ---- pass 4: reachability ------------------------------------------------
  // Roots: the entry point plus every address-taken text address (thread
  // entries and jump-table targets enter execution without a static edge).
  std::deque<Addr> frontier;
  auto mark = [&](Addr a) {
    BasicBlock* block = const_cast<BasicBlock*>(cfg.block_at(a));
    if (block != nullptr && !block->reachable) {
      block->reachable = true;
      frontier.push_back(block->start);
    }
  };
  mark(program.entry);
  for (Addr a : cfg.address_taken) mark(a);
  while (!frontier.empty()) {
    const Addr start = frontier.front();
    frontier.pop_front();
    const BasicBlock* block = cfg.block_at(start);
    for (Addr succ : block->successors) mark(succ);
    // A call returns: the instruction after the jal/jalr is reachable once
    // the callee is (approximated as always — exactness needs
    // interprocedural may-return analysis).
    if (block->exit == BlockExit::kCall) {
      mark(block->end);
    } else if (block->exit == BlockExit::kIndirect &&
               decoded[(block->terminator_pc() - cfg.text_base) / 4].op ==
                   isa::Op::kJalr) {
      mark(block->end);
    }
  }

  return cfg;
}

IndirectTargetTable indirect_targets(const ControlFlowGraph& cfg) {
  IndirectTargetTable table;
  for (const BasicBlock& block : cfg.blocks) {
    if (block.exit != BlockExit::kReturn && block.exit != BlockExit::kIndirect) continue;
    if (!block.indirect_resolved) continue;
    table.emplace(block.terminator_pc(), block.successors);
  }
  return table;
}

}  // namespace rse::analysis
