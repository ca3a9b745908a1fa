#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "disasm/code_view.hpp"
#include "elf/elf_builder.hpp"
#include "util/rng.hpp"

namespace fetch::disasm {
namespace {

/// Differential testing of AddrSet's range operations against a naive
/// reference model (a std::set of member addresses) under random
/// operation sequences, over a window that holds slot-backed addresses
/// of several executable sections and spill addresses around them.
constexpr std::uint64_t kBase = 0x401000;
constexpr std::uint64_t kSpace = 512;  // the window is kBase .. + kSpace

/// An ELF whose executable sections are the given (offset, size) ranges
/// from kBase, in that order (ascending offsets).
elf::ElfFile make_elf(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& sections) {
  elf::ElfBuilder b;
  int n = 0;
  for (const auto& [offset, size] : sections) {
    b.add_section(".text." + std::to_string(n++), elf::kShtProgbits,
                  elf::kShfAlloc | elf::kShfExecinstr, kBase + offset,
                  std::vector<std::uint8_t>(size, 0x90), 1);
  }
  b.set_entry(kBase + sections.front().first);
  return elf::ElfFile(b.build());
}

/// The maximal ranges of [lo, hi) holding no member of \p model.
std::vector<AddrSet::Range> naive_gaps(const std::set<std::uint64_t>& model,
                                       std::uint64_t lo, std::uint64_t hi) {
  std::vector<AddrSet::Range> out;
  for (std::uint64_t a = lo; a < hi; ++a) {
    if (model.count(a) != 0) {
      continue;
    }
    if (!out.empty() && out.back().hi == a) {
      ++out.back().hi;
    } else {
      out.push_back({a, a + 1});
    }
  }
  return out;
}

std::string show(const std::vector<AddrSet::Range>& ranges) {
  std::string out;
  for (const AddrSet::Range& r : ranges) {
    out += '[';
    out += std::to_string(r.lo - kBase);
    out += ',';
    out += std::to_string(r.hi - kBase);
    out += ") ";
  }
  return out;
}

/// Random single and range inserts into an AddrSet over \p code, each
/// followed by count, size and gaps checks against the naive model.
void check_random_inserts(const CodeView& code, std::uint64_t seed) {
  Rng rng(seed * 7919 + 3);
  AddrSet fast(code);
  std::set<std::uint64_t> slow;
  const std::uint64_t lo = kBase - 32;
  const std::uint64_t hi = kBase + kSpace + 32;

  for (int op = 0; op < 300; ++op) {
    const std::uint64_t from = lo + rng.below(hi - lo);
    if (rng.chance(0.2)) {
      ASSERT_EQ(fast.insert(from), slow.insert(from).second) << from - kBase;
    } else {
      const std::uint64_t to = from + rng.below(rng.chance(0.2) ? 200 : 24);
      fast.insert_range(from, to);
      for (std::uint64_t a = from; a < to; ++a) {
        slow.insert(a);
      }
    }
    ASSERT_EQ(fast.size(), slow.size()) << "after op " << op;
    for (int q = 0; q < 8; ++q) {
      const std::uint64_t a = lo + rng.below(hi - lo);
      ASSERT_EQ(fast.count(a), slow.count(a))
          << "addr " << a - kBase << " after op " << op;
    }
    const std::uint64_t qlo = lo + rng.below(hi - lo);
    const std::uint64_t qhi = qlo + rng.below(hi - qlo + 1);
    const std::vector<AddrSet::Range> want = naive_gaps(slow, qlo, qhi);
    ASSERT_EQ(fast.gaps(qlo, qhi), want)
        << show(fast.gaps(qlo, qhi)) << "vs " << show(want);
  }

  // Over the whole window: every address agrees, and the gaps are the
  // maximal uncovered ranges, which partition the non-members.
  for (std::uint64_t a = lo; a < hi; ++a) {
    ASSERT_EQ(fast.count(a), slow.count(a)) << a - kBase;
  }
  ASSERT_EQ(fast.gaps(lo, hi), naive_gaps(slow, lo, hi));
  EXPECT_TRUE(fast.gaps(hi, lo).empty());
  // for_each: slot-backed members ascending, then the spill members.
  const auto ranges = code.slot_ranges();
  std::vector<std::uint64_t> slotted;
  std::vector<std::uint64_t> spilled;
  fast.for_each([&](std::uint64_t a) {
    const bool in_slot =
        std::any_of(ranges.begin(), ranges.end(),
                    [&](const auto& r) { return a - r.addr < r.count; });
    (in_slot ? slotted : spilled).push_back(a);
  });
  EXPECT_TRUE(std::is_sorted(slotted.begin(), slotted.end()));
  EXPECT_TRUE(std::is_sorted(spilled.begin(), spilled.end()));
  std::set<std::uint64_t> members(slotted.begin(), slotted.end());
  members.insert(spilled.begin(), spilled.end());
  EXPECT_EQ(members, slow);
  EXPECT_EQ(slotted.size() + spilled.size(), slow.size());
}

class AddrSetRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AddrSetRandom, MatchesNaiveModelAcrossSectionsAndSpill) {
  // Two disjoint executable sections, the larger one second; the window
  // also holds addresses before, between and after them (spill members).
  const elf::ElfFile elf = make_elf({{64, 96}, {256, 160}});
  const CodeView code(elf);
  ASSERT_EQ(code.slot_ranges().size(), 2u);
  check_random_inserts(code, GetParam());
}

TEST_P(AddrSetRandom, MatchesNaiveModelOnOverlappingSections) {
  // Hostile layout: the largest section [32, 160) overlaps the first one's
  // tail, holds a third one whole and is overlapped by a fourth that runs
  // past its end; a fifth lies apart. The first section in header order
  // owns each byte, so the slots form four adjacent or apart runs: [0, 48),
  // [48, 160), [160, 190) and [300, 308). Range inserts and gaps must cross
  // the run boundaries exactly.
  const elf::ElfFile elf =
      make_elf({{0, 48}, {32, 128}, {100, 10}, {150, 40}, {300, 8}});
  const CodeView code(elf);
  ASSERT_EQ(code.slot_ranges().size(), 4u);
  check_random_inserts(code, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddrSetRandom,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace fetch::disasm
