#include "disasm/code_view.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "x86/decoder.hpp"

namespace fetch::disasm {

namespace {

/// x86-64 instructions are at most 15 bytes; the decode window never needs
/// more, and the shard clamp keeps it from crossing the run's end.
constexpr std::uint64_t kMaxInsnBytes = 15;

// A publish is a plain struct copy followed by one release store, and the
// arena frees its raw buckets without running a destructor.
static_assert(std::is_trivially_copyable_v<Step> &&
                  std::is_trivially_destructible_v<Step>,
              "arena steps must be flat copyable structs");

/// Decode-cache metrics (global registry: CodeViews are per-binary and
/// ephemeral, the aggregate is what matters). Looked up once; the handles
/// are stable references.
struct CacheMetrics {
  obs::Counter& claims;     ///< slots won (empty → decoding)
  obs::Counter& decoded;    ///< claims published as steps
  obs::Counter& invalid;    ///< claims published as undecodable
  obs::Counter& redecodes;  ///< full decodes outside the cache
  obs::Gauge& peak_bytes;   ///< largest view: slot arrays + step arena

  static CacheMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static CacheMetrics metrics{
        reg.counter("codeview_slot_claims_total"),
        reg.counter("codeview_decoded_total"),
        reg.counter("codeview_invalid_total"),
        reg.counter("codeview_redecodes_total"),
        reg.gauge("codeview_peak_bytes"),
    };
    return metrics;
  }
};

}  // namespace

CodeView::CodeView(const elf::ElfFile& elf) : elf_(elf) {
  // The runs are disjoint, so every code byte gets exactly one slot however
  // many section headers cover it. SHT_NOBITS runs have no bytes to decode;
  // parse() range-checked every other section's bytes.
  std::uint64_t base = 0;
  for (const elf::ElfFile::SectionRun& run : elf_.code_runs()) {
    const elf::Section& sec = elf_.sections()[run.section];
    if (sec.type == elf::kShtNobits) {
      continue;
    }
    Shard& shard = shards_.emplace_back();
    shard.addr = run.lo;
    shard.count = run.hi - run.lo;
    shard.base = base;
    shard.bytes = elf_.section_bytes(sec).data() + (run.lo - sec.addr);
    base += shard.count;
  }
  // Checked before any slot array is allocated. Slot numbers are 32-bit,
  // and a file cannot hold more distinct code bytes than it has: more means
  // headers at distinct addresses alias the same bytes, each alias costing
  // slots, decodes and probes of its own.
  const std::uint64_t limit = std::min<std::uint64_t>(
      elf_.image().size(), std::numeric_limits<std::uint32_t>::max());
  if (base > limit) {
    throw ParseError("ELF: executable sections exceed the file's size");
  }
  for (Shard& shard : shards_) {
    shard.slots = std::make_unique<std::atomic<std::uint32_t>[]>(shard.count);
  }
}

std::vector<CodeView::SlotRange> CodeView::slot_ranges() const {
  std::vector<SlotRange> ranges;
  for (const Shard& shard : shards_) {
    ranges.push_back(shard);
  }
  return ranges;
}

CodeView::~CodeView() {
  std::uint64_t bytes = steps_.bytes();
  for (const Shard& shard : shards_) {
    bytes += shard.count * sizeof(std::atomic<std::uint32_t>);
  }
  CacheMetrics::get().peak_bytes.bump_max(static_cast<std::int64_t>(bytes));
}

const CodeView::Shard* CodeView::shard_at(std::uint64_t addr) const {
  const auto it = first_above(shards_, addr);
  if (it == shards_.begin()) {
    return nullptr;
  }
  const Shard& shard = *std::prev(it);
  return addr - shard.addr < shard.count ? &shard : nullptr;
}

Step CodeView::make_step(const x86::Insn& insn) const {
  const bool imm_in_section =
      insn.imm && elf_.section_at(*insn.imm) != nullptr;
  Step step;
  step.target = insn.target       ? *insn.target
                : insn.mem_target ? *insn.mem_target
                : imm_in_section  ? *insn.imm
                                  : 0;
  step.regs_read = insn.regs_read;
  step.regs_written = insn.regs_written;
  step.length = insn.length;
  step.kind = insn.kind;
  auto set = [&](std::uint8_t flag, bool on) {
    step.flags |= on ? flag : 0;
  };
  set(Step::kNextIsCode, elf_.is_code_address(insn.addr + insn.length));
  set(Step::kTargetIsCode,
      insn.target && elf_.is_code_address(*insn.target));
  set(Step::kHasMemTarget, insn.mem_target.has_value());
  set(Step::kImmInSection, imm_in_section);
  set(Step::kMemIsCode,
      insn.mem_target && elf_.is_code_address(*insn.mem_target));
  set(Step::kImmIsCode, insn.imm && elf_.is_code_address(*insn.imm));
  return step;
}

std::optional<x86::Insn> CodeView::decode_at(const Shard& shard,
                                             std::uint64_t off) const {
  // The window is clamped to the shard so it cannot cross the run's end.
  const std::uint64_t window =
      std::min<std::uint64_t>(kMaxInsnBytes, shard.count - off);
  return x86::decode({shard.bytes + off, window}, shard.addr + off);
}

std::optional<x86::Insn> CodeView::decode(std::uint64_t addr) const {
  const Shard* shard = shard_at(addr);
  if (shard == nullptr) {
    return std::nullopt;
  }
  CacheMetrics::get().redecodes.add();
  return decode_at(*shard, addr - shard->addr);
}

void CodeView::redecode(std::uint32_t slot, x86::Insn& out) const {
  const Shard& shard = shard_of(slot);
  CacheMetrics::get().redecodes.add();
  const auto insn = decode_at(shard, slot - shard.base);
  FETCH_ASSERT(insn.has_value());  // the slot holds a step: its bytes decode
  out = *insn;
}

CodeView::Operands CodeView::operands(std::uint32_t slot,
                                      const Step& step) const {
  if (step.has(Step::kHasMemTarget) && step.has(Step::kImmInSection)) {
    x86::Insn insn;
    redecode(slot, insn);
    return {*insn.mem_target, *insn.imm};
  }
  return {step.target, step.target};
}

std::uint32_t CodeView::decode_slot(const Shard& shard,
                                    std::uint64_t off) const {
  std::atomic<std::uint32_t>& slot = shard.slots[off];
  std::uint32_t state = slot.load(std::memory_order_acquire);
  for (;;) {
    if (state >= kFirstStep || state == kInvalid) {
      return state;
    }
    if (state == kEmpty &&
        slot.compare_exchange_strong(state, kDecoding,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      // We own the claim: decode once, publish once.
      CacheMetrics& metrics = CacheMetrics::get();
      metrics.claims.add();
      const auto insn = decode_at(shard, off);
      if (!insn) {
        metrics.invalid.add();
        slot.store(kInvalid, std::memory_order_release);
        return kInvalid;
      }
      const std::uint32_t index =
          arena_next_.fetch_add(1, std::memory_order_relaxed);
      FETCH_ASSERT(index < StepArena::kCapacity - kFirstStep);
      steps_.publish(index, make_step(*insn));
      metrics.decoded.add();
      slot.store(index + kFirstStep, std::memory_order_release);
      return index + kFirstStep;
    }
    if (state == kDecoding) {
      // Another thread holds the claim; decoding is a few hundred ns, so
      // yield rather than spin hard (matters on oversubscribed hosts).
      std::this_thread::yield();
      state = slot.load(std::memory_order_acquire);
    }
    // On CAS failure `state` was reloaded; loop re-dispatches on it.
  }
}

CodeView::CacheStats CodeView::cache_stats() const {
  CacheStats stats;
  for (const Shard& shard : shards_) {
    stats.code_bytes += shard.count;
    for (std::uint64_t off = 0; off < shard.count; ++off) {
      const std::uint32_t state =
          shard.slots[off].load(std::memory_order_relaxed);
      if (state >= kFirstStep) {
        ++stats.decoded;
      } else if (state == kInvalid) {
        ++stats.invalid;
      }
    }
  }
  return stats;
}

void AddrSet::clear_sorted(std::vector<std::uint64_t>& members) {
  if (members.empty()) {
    return;
  }
  const auto [lo, hi] = std::minmax_element(members.begin(), members.end());
  const std::uint64_t first = index(*lo);
  const std::uint64_t last = index(*hi);
  if (!spill_.empty() || first == kNone || last == kNone ||
      last / 64 - first / 64 >= members.size()) {
    std::sort(members.begin(), members.end());
    for (const std::uint64_t a : members) {
      erase(a);
    }
    return;
  }
  auto r = std::prev(std::upper_bound(
      ranges_.begin(), ranges_.end(), first,
      [](std::uint64_t i, const CodeView::SlotRange& s) {
        return i < s.base;
      }));
  std::size_t n = 0;
  for (std::uint64_t w = first / 64; w <= last / 64; ++w) {
    for (std::uint64_t bits = std::exchange(words_[w], 0); bits != 0;
         bits &= bits - 1) {
      const std::uint64_t i = w * 64 + std::countr_zero(bits);
      while (i >= r->base + r->count) {
        ++r;
      }
      FETCH_ASSERT(n < members.size());
      members[n++] = r->addr + (i - r->base);
    }
  }
  size_ -= n;
}

}  // namespace fetch::disasm
