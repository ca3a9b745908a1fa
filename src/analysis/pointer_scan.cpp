#include "analysis/pointer_scan.hpp"

#include <cstring>

namespace fetch::analysis {

namespace {

void scan_window(const elf::ElfFile& elf, std::span<const std::uint8_t> bytes,
                 std::set<std::uint64_t>& out, std::size_t step) {
  if (bytes.size() < 8) {
    return;
  }
  for (std::size_t i = 0; i + 8 <= bytes.size(); i += step) {
    std::uint64_t value;
    std::memcpy(&value, bytes.data() + i, 8);
    if (elf.is_code_address(value)) {
      out.insert(value);
    }
  }
}

}  // namespace

std::set<std::uint64_t> scan_data_pointers(const elf::ElfFile& elf,
                                           const disasm::Result& disasm,
                                           bool aligned_only) {
  const std::size_t step = aligned_only ? 8 : 1;
  std::set<std::uint64_t> out;

  // Only the non-disassembled gaps of code.
  for (const elf::ElfFile::SectionRun& run : elf.code_runs()) {
    for (const auto& gap : disasm.covered.gaps(run.lo, run.hi)) {
      const auto bytes = elf.bytes_at(gap.lo, gap.hi - gap.lo);
      if (bytes) {
        scan_window(elf, *bytes, out, step);
      }
    }
  }
  for (const elf::Section& sec : elf.sections()) {
    if (sec.alloc() && !sec.executable() && sec.type != elf::kShtNobits) {
      scan_window(elf, elf.section_bytes(sec), out, step);
    }
  }

  return out;
}

std::set<std::uint64_t> collect_pointer_candidates(
    const elf::ElfFile& elf, const disasm::Result& disasm,
    bool aligned_only) {
  std::set<std::uint64_t> out = scan_data_pointers(elf, disasm, aligned_only);

  // Constants observed in code (immediates and RIP-relative targets).
  for (const disasm::Ref& ref : disasm.xrefs.all()) {
    if ((ref.kind == disasm::RefKind::kImmediate ||
         ref.kind == disasm::RefKind::kMemory) &&
        elf.is_code_address(ref.target)) {
      out.insert(ref.target);
    }
  }
  return out;
}

}  // namespace fetch::analysis
