#include "elf/elf_file.hpp"

#include <algorithm>
#include <set>

#include "util/byte_cursor.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace fetch::elf {

namespace {

Ehdr read_ehdr(std::span<const std::uint8_t> image) {
  if (image.size() < sizeof(Ehdr)) {
    throw ParseError("ELF: image smaller than ELF header");
  }
  ByteCursor cur(image);
  const Ehdr ehdr = cur.pod<Ehdr>();
  if (!std::equal(kMagic, kMagic + 4, ehdr.ident)) {
    throw ParseError("ELF: bad magic");
  }
  if (ehdr.ident[4] != static_cast<std::uint8_t>(Class::k64)) {
    throw ParseError("ELF: only ELFCLASS64 supported");
  }
  if (ehdr.ident[5] != static_cast<std::uint8_t>(Encoding::kLsb)) {
    throw ParseError("ELF: only little-endian supported");
  }
  return ehdr;
}

}  // namespace

ElfFile::ElfFile(std::span<const std::uint8_t> image)
    : image_(image.begin(), image.end()) {
  parse();
}

ElfFile ElfFile::load(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!util::read_file_bytes(path, &bytes)) {
    throw ParseError("ELF: cannot open " + path);
  }
  return ElfFile(bytes);
}

void ElfFile::parse() {
  const std::span<const std::uint8_t> image{image_.data(), image_.size()};
  const Ehdr ehdr = read_ehdr(image);
  type_ = static_cast<Type>(ehdr.type);
  entry_ = ehdr.entry;

  // Every table access below goes through subspan_checked / ByteCursor,
  // so a header field lying about an offset or count raises ParseError
  // instead of reading out of bounds.
  auto check_range = [&](Off off, std::uint64_t size, const char* what) {
    if (off > image_.size() || size > image_.size() - off) {
      throw ParseError(std::string("ELF: ") + what + " out of bounds");
    }
  };

  // Program headers.
  if (ehdr.phnum != 0) {
    if (ehdr.phentsize < sizeof(Phdr)) {
      throw ParseError("ELF: phentsize too small");
    }
    check_range(ehdr.phoff,
                static_cast<std::uint64_t>(ehdr.phnum) * ehdr.phentsize,
                "program headers");
    for (std::uint16_t i = 0; i < ehdr.phnum; ++i) {
      ByteCursor cur(subspan_checked(
          image, ehdr.phoff + static_cast<std::uint64_t>(i) * ehdr.phentsize,
          ehdr.phentsize, "program header"));
      const Phdr ph = cur.pod<Phdr>();
      segments_.push_back({ph.type, ph.flags, ph.offset, ph.vaddr, ph.filesz,
                           ph.memsz});
    }
  }

  // Section headers.
  std::vector<Shdr> shdrs;
  if (ehdr.shnum != 0) {
    if (ehdr.shentsize < sizeof(Shdr)) {
      throw ParseError("ELF: shentsize too small");
    }
    check_range(ehdr.shoff,
                static_cast<std::uint64_t>(ehdr.shnum) * ehdr.shentsize,
                "section headers");
    shdrs.reserve(ehdr.shnum);
    for (std::uint16_t i = 0; i < ehdr.shnum; ++i) {
      ByteCursor cur(subspan_checked(
          image, ehdr.shoff + static_cast<std::uint64_t>(i) * ehdr.shentsize,
          ehdr.shentsize, "section header"));
      shdrs.push_back(cur.pod<Shdr>());
    }
  }

  // Section name string table.
  std::span<const std::uint8_t> shstr;
  if (ehdr.shstrndx < shdrs.size()) {
    const Shdr& s = shdrs[ehdr.shstrndx];
    if (s.type != kShtNobits) {
      shstr = subspan_checked(image, s.offset, s.size, "shstrtab");
    }
  }
  auto str_at = [&](std::span<const std::uint8_t> table,
                    std::uint64_t off) -> std::string {
    if (off >= table.size()) {
      return {};
    }
    const auto tail = table.subspan(static_cast<std::size_t>(off));
    std::string out;
    for (const std::uint8_t c : tail) {
      if (c == 0) {
        break;
      }
      out.push_back(static_cast<char>(c));
    }
    return out;
  };

  for (const Shdr& sh : shdrs) {
    if (sh.type != kShtNobits) {
      check_range(sh.offset, sh.size, "section contents");
    }
    sections_.push_back({str_at(shstr, sh.name), sh.type, sh.flags, sh.addr,
                         sh.offset, sh.size, sh.link, sh.entsize});
  }
  build_section_index();

  // Symbols: parse every SHT_SYMTAB / SHT_DYNSYM section (normally at
  // most one of each) into its own vector. The two tables share the
  // reader; each resolves names through its own linked string table.
  auto read_symbols = [&](const Shdr& sh, const char* what,
                          std::vector<Symbol>* out) {
    if (sh.entsize < sizeof(Sym)) {
      throw ParseError(std::string("ELF: ") + what + " entsize too small");
    }
    std::span<const std::uint8_t> strtab;
    if (sh.link < shdrs.size() && shdrs[sh.link].type == kShtStrtab) {
      const Shdr& st = shdrs[sh.link];
      strtab = subspan_checked(image, st.offset, st.size, "symbol strtab");
    }
    const std::uint64_t count = sh.size / sh.entsize;
    for (std::uint64_t n = 0; n < count; ++n) {
      ByteCursor cur(subspan_checked(image, sh.offset + n * sh.entsize,
                                     sh.entsize, what));
      const Sym sym = cur.pod<Sym>();
      if (n == 0) {
        continue;  // index 0 is the reserved undefined symbol
      }
      out->push_back(
          {str_at(strtab, sym.name), sym.value, sym.size, sym.info, sym.shndx});
    }
  };
  for (const Shdr& sh : shdrs) {
    if (sh.type == kShtSymtab) {
      has_symtab_ = true;
      read_symbols(sh, "symtab", &symbols_);
    } else if (sh.type == kShtDynsym) {
      has_dynsym_ = true;
      read_symbols(sh, "dynsym", &dyn_symbols_);
    }
  }
}

FunctionTruth ElfFile::function_truth(TruthRequest request) const {
  auto extract = [this](const std::vector<Symbol>& table, const char* source) {
    FunctionTruth truth;
    truth.source = source;
    for (const Symbol& sym : table) {
      if (!sym.is_function() && !sym.is_ifunc()) {
        continue;
      }
      if (!sym.defined()) {
        ++truth.undefined;  // import (dynsym) or SHN_ABS pseudo-symbol
        continue;
      }
      if (!is_code_address(sym.value)) {
        ++truth.non_code;  // e.g. descriptors or mislabeled data
        continue;
      }
      if (!truth.starts.insert(sym.value).second) {
        ++truth.aliases;  // weak/strong alias pair, versioned duplicate, ...
        continue;
      }
      // Counted only for the representative of each address, after dedup:
      // zero-size entries are typically hand-written assembly stubs whose
      // extent the assembler never recorded — the *start* is still real.
      if (sym.size == 0) {
        ++truth.zero_sized;
      }
      if (sym.is_ifunc()) {
        ++truth.ifuncs;
      }
    }
    return truth;
  };
  // Prefer .symtab; fall back to .dynsym when stripping removed it or it
  // carries no usable function starts. A table that yields nothing (e.g.
  // a coreutils .dynsym that only imports) is as good as absent, so the
  // result degrades to source == "none" with the counters preserved.
  FunctionTruth truth;
  if (has_symtab_ && request == TruthRequest::kPreferSymtab) {
    truth = extract(symbols_, "symtab");
  }
  if (truth.starts.empty() && has_dynsym_) {
    truth = extract(dyn_symbols_, "dynsym");
  }
  if (truth.starts.empty()) {
    truth.source = "none";
  }
  return truth;
}

const Section* ElfFile::section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::span<const std::uint8_t> ElfFile::section_bytes(const Section& s) const {
  if (s.type == kShtNobits) {
    return {};
  }
  // parse() range-checked every section header, so this cannot throw for
  // a Section handed out by this file.
  return subspan_checked({image_.data(), image_.size()}, s.offset, s.size,
                         "section bytes");
}

void ElfFile::build_section_index() {
  // Sweep over section boundaries, keeping the header indices of the
  // sections that cover the current run; the smallest index answers it
  // (first-match semantics). A section whose end wraps past 2^64 contains
  // nothing, exactly as Section::contains computes it.
  struct Event {
    Addr at;
    bool open;
    std::uint32_t section;
  };
  std::vector<Event> events;
  for (std::uint32_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    if (s.alloc() && s.addr + s.size > s.addr) {
      events.push_back({s.addr, true, i});
      events.push_back({s.addr + s.size, false, i});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.at < b.at;
  });
  std::set<std::uint32_t> open;
  for (std::size_t i = 0; i < events.size();) {
    const Addr at = events[i].at;
    for (; i < events.size() && events[i].at == at; ++i) {
      if (events[i].open) {
        open.insert(events[i].section);
      } else {
        open.erase(events[i].section);
      }
    }
    if (open.empty() || i == events.size()) {
      continue;
    }
    const std::uint32_t first = *open.begin();
    if (!section_index_.empty() && section_index_.back().hi == at &&
        section_index_.back().section == first) {
      section_index_.back().hi = events[i].at;
    } else {
      section_index_.push_back({at, events[i].at, first});
    }
  }
  for (const SectionRun& run : section_index_) {
    if (sections_[run.section].executable()) {
      code_runs_.push_back(run);
      if (run.hi - run.lo > largest_code_.hi - largest_code_.lo) {
        largest_code_ = run;
      }
    }
  }
  if (!code_runs_.empty()) {
    code_span_ = {code_runs_.front().lo, code_runs_.back().hi};
  }
}

bool ElfFile::is_code_address(Addr addr) const {
  // Data-pointer scans ask mostly about values outside every code run:
  // one compare rejects them. Nearly every other query lands in .text, the
  // largest code run: one compare accepts it.
  if (addr - code_span_.lo >= code_span_.hi - code_span_.lo) {
    return false;
  }
  if (addr - largest_code_.lo < largest_code_.hi - largest_code_.lo) {
    return true;
  }
  const Section* s = section_at(addr);
  return s != nullptr && s->executable();
}

const Section* ElfFile::section_at(Addr addr) const {
  const auto it = std::upper_bound(
      section_index_.begin(), section_index_.end(), addr,
      [](Addr a, const SectionRun& run) { return a < run.lo; });
  if (it == section_index_.begin() || addr >= std::prev(it)->hi) {
    return nullptr;
  }
  return &sections_[std::prev(it)->section];
}

std::optional<std::span<const std::uint8_t>> ElfFile::bytes_at(
    Addr addr, std::uint64_t len) const {
  const Section* s = section_at(addr);
  if (s == nullptr || s->type == kShtNobits) {
    return std::nullopt;
  }
  const std::uint64_t off = addr - s->addr;
  if (len > s->size - off) {
    return std::nullopt;
  }
  return subspan_checked({image_.data(), image_.size()}, s->offset + off, len,
                         "bytes_at");
}

}  // namespace fetch::elf
