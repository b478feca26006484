#include <cctype>
#include <sstream>
#include <string>

#include "isa/instruction.hpp"
#include "workloads/workloads.hpp"

namespace rse::workloads {
namespace {

std::string lower_first_word(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  std::string word = text.substr(0, i);
  for (char& c : word) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return word;
}

bool is_control_mnemonic(const std::string& m) {
  const isa::OpClass c = isa::op_info(isa::op_named(m)).op_class;
  return c == isa::OpClass::kBranch || c == isa::OpClass::kJump || m == "b" || m == "beqz" ||
         m == "bnez";
}

bool is_mem_mnemonic(const std::string& m) {
  const isa::OpClass c = isa::op_info(isa::op_named(m)).op_class;
  return c == isa::OpClass::kLoad || c == isa::OpClass::kStore;
}

}  // namespace

std::string instrument_checks(const std::string& source, const InstrumentOptions& options) {
  std::ostringstream out;
  std::istringstream in(source);
  std::string line;
  while (std::getline(in, line)) {
    // Separate code from comment.
    std::string code = line;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i] == '#' || code[i] == ';') {
        code.resize(i);
        break;
      }
    }
    // Peel labels (they stay in front of any inserted CHECK so control
    // transfers execute the CHECK before the checked instruction).
    std::string labels;
    std::size_t pos = 0;
    while (true) {
      std::size_t i = pos;
      while (i < code.size() &&
             (std::isalnum(static_cast<unsigned char>(code[i])) || code[i] == '_' ||
              code[i] == '.')) {
        ++i;
      }
      if (i > pos && i < code.size() && code[i] == ':') {
        labels += code.substr(pos, i - pos + 1);
        labels += '\n';
        pos = i + 1;
        while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos]))) ++pos;
        continue;
      }
      break;
    }
    std::string body = code.substr(pos);
    // trim
    std::size_t b = 0, e = body.size();
    while (b < e && std::isspace(static_cast<unsigned char>(body[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(body[e - 1]))) --e;
    body = body.substr(b, e - b);

    if (!labels.empty()) out << labels;
    if (body.empty()) {
      out << line.substr(0, 0) << "\n";
      continue;
    }
    const std::string mnemonic = lower_first_word(body);
    const bool check = (options.check_control && is_control_mnemonic(mnemonic)) ||
                       (options.check_mem && is_mem_mnemonic(mnemonic));
    if (options.add_icm_enable && body == ".text" && !labels.empty()) {
      // nothing: enable insertion is handled at 'main:'
    }
    if (check) out << "  chk icm, 0, blk, r0, 0\n";
    out << "  " << body << "\n";
  }

  std::string result = out.str();
  if (options.add_icm_enable) {
    // Enable the ICM as the first action of main (module id 1 = ICM).
    const std::string needle = "main:\n";
    const std::size_t at = result.find(needle);
    if (at != std::string::npos) {
      result.insert(at + needle.size(), "  chk frame, 1, nblk, r0, 1\n");
    }
  }
  return result;
}

}  // namespace rse::workloads
