#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "disasm/code_view.hpp"
#include "elf/elf_file.hpp"

namespace fetch {
namespace {

/// Differential validation of the x86-64 decoder against GNU objdump:
/// linear-decode /bin/ls's .text and compare instruction *boundaries*
/// with objdump -d. Skipped when binutils is unavailable.

std::string run_command(const std::string& cmd) {
  std::array<char, 4096> chunk;
  std::string out;
  std::unique_ptr<FILE, int (*)(FILE*)> pipe(popen(cmd.c_str(), "r"),
                                             &pclose);
  if (!pipe) {
    return out;
  }
  std::size_t n;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe.get())) > 0) {
    out.append(chunk.data(), n);
  }
  return out;
}

void check_boundaries_against_objdump(const std::string& binary) {
  std::ifstream probe(binary, std::ios::binary);
  if (!probe) {
    GTEST_SKIP() << binary << " not available";
  }
  if (std::system("command -v objdump >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "objdump not available";
  }

  const std::string dump = run_command(
      "objdump -d -j .text --no-show-raw-insn " + binary + " 2>/dev/null");
  if (dump.empty()) {
    GTEST_SKIP() << "objdump produced no output";
  }

  // Parse objdump's instruction addresses: lines of the form
  // "  401000:\t<mnemonic> ...".
  std::set<std::uint64_t> objdump_addrs;
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0 || colon > 20) {
      continue;
    }
    const std::string addr_part = line.substr(0, colon);
    char* end = nullptr;
    const std::uint64_t addr = std::strtoull(addr_part.c_str(), &end, 16);
    if (end == nullptr || *end != '\0' || addr == 0) {
      continue;
    }
    objdump_addrs.insert(addr);
  }
  ASSERT_GT(objdump_addrs.size(), 1000u);

  // Linear-decode the same range with our decoder, following objdump's
  // boundaries: at every address objdump lists, our decode must succeed
  // and its end must also be an objdump boundary (or the section end).
  const elf::ElfFile elf = elf::ElfFile::load(binary);
  const disasm::CodeView code(elf);
  const elf::Section* text = elf.section(".text");
  ASSERT_NE(text, nullptr);
  const std::uint64_t text_end = text->addr + text->size;

  std::size_t checked = 0;
  std::size_t disagreements = 0;
  for (const std::uint64_t addr : objdump_addrs) {
    if (addr < text->addr || addr >= text_end) {
      continue;
    }
    const disasm::Step* insn = code.rec_at(addr).step;
    ++checked;
    if (insn == nullptr) {
      ++disagreements;  // we failed where objdump decoded
      continue;
    }
    const std::uint64_t next = addr + insn->length;
    if (next != text_end && objdump_addrs.count(next) == 0) {
      ++disagreements;  // length mismatch: we landed mid-instruction
    }
  }
  ASSERT_GT(checked, 1000u);
  // Real .text can contain exotic encodings beyond the supported maps;
  // demand 99%+ agreement. (With VEX + EVEX decoded, /bin/ls and glibc
  // both currently agree on 100% of boundaries.)
  EXPECT_LT(static_cast<double>(disagreements) / static_cast<double>(checked),
            0.01)
      << disagreements << " of " << checked << " boundaries disagree";
}

TEST(ObjdumpDiff, InstructionBoundariesAgreeOnRealBinary) {
  check_boundaries_against_objdump("/bin/ls");
}

/// glibc's hand-written str*/mem* kernels are the densest SSE/AVX/EVEX
/// code most machines carry — the exact encodings the synthesizer never
/// emits (ROADMAP "wider ISA coverage").
TEST(ObjdumpDiff, InstructionBoundariesAgreeOnGlibc) {
  check_boundaries_against_objdump("/usr/lib/x86_64-linux-gnu/libc.so.6");
}

}  // namespace
}  // namespace fetch
