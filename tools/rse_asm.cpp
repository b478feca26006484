// rse-asm: assemble a guest .s file and print the listing (addresses,
// encodings, disassembly, symbols).  Useful for inspecting programs before
// running them with rse-run.
//
//   rse_asm program.s [--instrument] [--instrument-mem]
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "isa/assembler.hpp"
#include "workloads/workloads.hpp"

using namespace rse;

namespace {

int usage() {
  std::cerr << "usage: rse_asm <program.s> [--instrument] [--instrument-mem]\n"
            << "  --instrument      insert ICM CHECKs before control-flow instructions\n"
            << "  --instrument-mem  ...and before loads/stores\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string path;
  workloads::InstrumentOptions options;
  bool instrument = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--instrument") {
      instrument = true;
    } else if (arg == "--instrument-mem") {
      instrument = true;
      options.check_mem = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }
  if (path.empty()) return usage();

  std::ifstream file(path);
  if (!file) {
    std::cerr << "rse_asm: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string source = buffer.str();

  try {
    if (instrument) source = workloads::instrument_checks(source, options);
    const isa::Program program = isa::assemble(source);
    std::cout << "; text: " << program.text.size() << " instructions at 0x" << std::hex
              << program.text_base << ", data: " << std::dec << program.data.size()
              << " bytes at 0x" << std::hex << program.data_base << ", entry 0x"
              << program.entry << std::dec << "\n\n";
    // Reverse symbol map for labels in the listing.
    std::multimap<Addr, std::string> by_addr;
    for (const auto& [name, addr] : program.symbols) by_addr.emplace(addr, name);
    for (std::size_t i = 0; i < program.text.size(); ++i) {
      const Addr pc = program.text_base + static_cast<Addr>(i * 4);
      auto [lo, hi] = by_addr.equal_range(pc);
      for (auto it = lo; it != hi; ++it) std::cout << it->second << ":\n";
      std::cout << "  " << std::hex << std::setw(8) << std::setfill('0') << pc << "  "
                << std::setw(8) << program.text[i] << std::dec << std::setfill(' ') << "  "
                << isa::disassemble(isa::decode(program.text[i])) << "\n";
    }
    std::cout << "\n; data symbols:\n";
    for (const auto& [name, addr] : program.symbols) {
      if (addr >= program.data_base) {
        std::cout << ";   " << name << " = 0x" << std::hex << addr << std::dec << "\n";
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "rse_asm: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
