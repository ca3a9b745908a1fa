#pragma once

/// \file elf_file.hpp
/// Read-only view of an ELF64 image: sections, program headers, symbols,
/// and virtual-address translation. This is the substrate every detector
/// consumes; it never mutates the underlying bytes.

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "elf/types.hpp"

namespace fetch::elf {

struct Section {
  std::string name;
  std::uint32_t type = 0;
  std::uint64_t flags = 0;
  Addr addr = 0;
  Off offset = 0;
  std::uint64_t size = 0;
  std::uint32_t link = 0;
  std::uint64_t entsize = 0;

  [[nodiscard]] bool alloc() const { return (flags & kShfAlloc) != 0; }
  [[nodiscard]] bool executable() const {
    return (flags & kShfExecinstr) != 0;
  }
  [[nodiscard]] bool writable() const { return (flags & kShfWrite) != 0; }
  [[nodiscard]] bool contains(Addr a) const {
    return alloc() && a >= addr && a < addr + size;
  }
};

struct Segment {
  std::uint32_t type = 0;
  std::uint32_t flags = 0;
  Off offset = 0;
  Addr vaddr = 0;
  std::uint64_t filesz = 0;
  std::uint64_t memsz = 0;
};

struct Symbol {
  std::string name;
  Addr value = 0;
  std::uint64_t size = 0;
  std::uint8_t info = 0;
  std::uint16_t shndx = 0;

  [[nodiscard]] bool is_function() const {
    return sym_type(info) == kSttFunc;
  }
  /// GNU indirect function: the symbol value is the resolver's entry,
  /// which is a genuine function start for detection purposes.
  [[nodiscard]] bool is_ifunc() const {
    return sym_type(info) == kSttGnuIfunc;
  }
  /// Defined in this image (not an import / absolute pseudo-symbol).
  [[nodiscard]] bool defined() const {
    return shndx != kShnUndef && shndx != kShnAbs;
  }
};

/// Approximate function-start ground truth extracted from an image's own
/// symbol tables, for scoring detection on real (non-synthetic) binaries.
/// `.symtab` is preferred; stripped binaries fall back to `.dynsym`
/// (exported functions only — precision against it is meaningless, recall
/// is not). The diagnostic counters record every policy decision so batch
/// reports can explain their numbers (see DESIGN.md, "Real-binary ground
/// truth").
struct FunctionTruth {
  /// Deduplicated entry addresses of defined STT_FUNC/STT_GNU_IFUNC
  /// symbols that land inside an executable section.
  std::set<Addr> starts;
  /// "symtab", "dynsym", or "none" (no usable symbol table).
  std::string source = "none";
  std::size_t zero_sized = 0;   ///< kept zero-size function symbols
  std::size_t ifuncs = 0;       ///< kept STT_GNU_IFUNC resolvers
  std::size_t aliases = 0;      ///< extra symbols collapsed onto one start
  std::size_t undefined = 0;    ///< dropped imports / SHN_ABS entries
  std::size_t non_code = 0;     ///< dropped values outside executable sections

  [[nodiscard]] bool usable() const { return !starts.empty(); }
};

/// Which symbol table function_truth() may consult. kPreferSymtab is the
/// historical behavior (symtab, dynsym fallback); kDynsymOnly ignores a
/// present .symtab so stripped-binary scoring can be rehearsed on an
/// unstripped input and compared against full truth.
enum class TruthRequest : std::uint8_t { kPreferSymtab, kDynsymOnly };

/// Parsed ELF image. The constructor copies the input bytes, so an ElfFile
/// owns its storage and remains valid independently of the source buffer.
class ElfFile {
 public:
  /// Parses an in-memory image. Throws ParseError on malformed input.
  explicit ElfFile(std::span<const std::uint8_t> image);

  /// Loads and parses a file from disk. Throws ParseError on I/O failure
  /// or malformed content.
  static ElfFile load(const std::string& path);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] Addr entry() const { return entry_; }
  [[nodiscard]] const std::vector<Section>& sections() const {
    return sections_;
  }
  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }
  /// Function/object symbols from .symtab (empty when stripped).
  [[nodiscard]] const std::vector<Symbol>& symbols() const { return symbols_; }
  [[nodiscard]] bool has_symtab() const { return has_symtab_; }

  /// Dynamic symbols from .dynsym (exported/imported API; survives
  /// stripping). Empty for fully static or synthetic images.
  [[nodiscard]] const std::vector<Symbol>& dynamic_symbols() const {
    return dyn_symbols_;
  }
  [[nodiscard]] bool has_dynsym() const { return has_dynsym_; }

  /// Extracts function-start ground truth from .symtab, falling back to
  /// .dynsym when the binary is stripped (see FunctionTruth for the
  /// filtering policy and its diagnostic counters). Pass
  /// TruthRequest::kDynsymOnly to skip .symtab even when present.
  [[nodiscard]] FunctionTruth function_truth(
      TruthRequest request = TruthRequest::kPreferSymtab) const;

  /// First section with the given name, or nullptr.
  [[nodiscard]] const Section* section(std::string_view name) const;

  /// Raw bytes of a section (empty span for SHT_NOBITS).
  [[nodiscard]] std::span<const std::uint8_t> section_bytes(
      const Section& s) const;

  /// Bytes at virtual address [addr, addr+len) via section mapping, or
  /// nullopt if the range is not fully inside one allocated section.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> bytes_at(
      Addr addr, std::uint64_t len) const;

  /// The allocated section containing \p addr, or nullptr. When sections
  /// overlap (hostile inputs), the first one in header order wins.
  /// O(log n) over an address index built at parse time.
  [[nodiscard]] const Section* section_at(Addr addr) const;

  /// True if \p addr is inside an executable section, i.e. in one of
  /// code_runs(). Addresses outside [first run's lo, last run's hi) are
  /// rejected in one compare.
  [[nodiscard]] bool is_code_address(Addr addr) const;

  /// A maximal address run [lo, hi) whose first containing allocated
  /// section in header order is sections()[section]; runs of different
  /// sections are never merged.
  struct SectionRun {
    Addr lo = 0;
    Addr hi = 0;
    std::uint32_t section = 0;
  };
  /// The runs of executable sections, sorted by lo and disjoint: the one
  /// map of which bytes are code, however the section headers overlap.
  [[nodiscard]] std::span<const SectionRun> code_runs() const {
    return code_runs_;
  }

  /// Whole underlying image.
  [[nodiscard]] std::span<const std::uint8_t> image() const {
    return {image_.data(), image_.size()};
  }

 private:
  void parse();
  void build_section_index();

  std::vector<std::uint8_t> image_;
  Type type_ = Type::kNone;
  Addr entry_ = 0;
  std::vector<Section> sections_;
  std::vector<SectionRun> section_index_;  ///< every allocated run
  std::vector<SectionRun> code_runs_;
  SectionRun largest_code_;  ///< largest of code_runs_
  SectionRun code_span_;     ///< [first run's lo, last run's hi); empty if none
  std::vector<Segment> segments_;
  std::vector<Symbol> symbols_;
  std::vector<Symbol> dyn_symbols_;
  bool has_symtab_ = false;
  bool has_dynsym_ = false;
};

}  // namespace fetch::elf
