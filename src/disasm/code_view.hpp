#pragma once

/// \file code_view.hpp
/// Decode-on-demand view of a binary's code with a lock-free dense decode
/// cache. All disassembly passes share one CodeView per binary so an
/// address is decoded into the cache at most once; concurrent strategy
/// cells of the parallel evaluation engine share one CodeView per corpus
/// entry (see DESIGN.md, "Hot path: the dense decode cache").
///
/// Layout: one atomic 32-bit slot per file-backed code byte, in one shard
/// per ElfFile::code_runs() entry. A slot is either empty, claimed for
/// decoding, invalid, or an index into one append-only arena of 16-byte
/// flow steps, the only thing the cache keeps of an instruction. Reads of
/// decoded/invalid slots are a single acquire load — wait-free, no lock,
/// no hashing, no rehash ever. The first thread to reach an address claims
/// its slot with one compare-exchange (empty → decoding) and publishes the
/// step (decoding → decoded), so no byte is ever decoded into the cache
/// twice. The few readers that need a full x86::Insn decode it again, into
/// storage they own. Nothing decodes eagerly: only the addresses the
/// analyses reach are ever decoded.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "elf/elf_file.hpp"
#include "x86/insn.hpp"

namespace fetch::disasm {

/// What the analyses read per instruction: 16 bytes, published once per
/// decoded slot. Each flag bit is the answer of an ElfFile query made once
/// at decode, so a walk step makes no section lookup, and `target` carries
/// the one address operand an instruction has, so a walk re-decodes only
/// where a decision needs more. The packing follows X86Emu's
/// per-instruction decode flags.
struct Step {
  static constexpr std::uint8_t kNextIsCode = 1;     ///< addr + length
  static constexpr std::uint8_t kTargetIsCode = 2;   ///< direct target
  static constexpr std::uint8_t kHasMemTarget = 4;   ///< RIP-relative operand
  static constexpr std::uint8_t kImmInSection = 8;   ///< imm in any section
  static constexpr std::uint8_t kMemIsCode = 16;     ///< mem_target in code
  static constexpr std::uint8_t kImmIsCode = 32;     ///< imm in code

  /// The direct call/jmp/jcc target; else the RIP-relative memory target;
  /// else the immediate when it lies in a section; else 0. (A direct
  /// branch has neither operand, so only an instruction with both a
  /// memory target and an in-section immediate loses one.)
  std::uint64_t target = 0;
  std::uint16_t regs_read = 0;     ///< x86::Insn::regs_read
  std::uint16_t regs_written = 0;  ///< x86::Insn::regs_written
  std::uint8_t length = 0;
  x86::Kind kind = x86::Kind::kOther;
  std::uint8_t flags = 0;

  /// True when any of the \p flag bits is set.
  [[nodiscard]] bool has(std::uint8_t flag) const {
    return (flags & flag) != 0;
  }
  friend bool operator==(const Step&, const Step&) = default;
};
static_assert(sizeof(Step) == 16, "a flow step is one 16-byte record");

/// The last (up to) 32 instructions on a path, oldest first, as slot
/// numbers of a CodeView: a fixed ring copied by value, so forking a path
/// never allocates.
class InsnWindow {
 public:
  static constexpr std::size_t kCapacity = 32;

  void push(std::uint32_t slot) {
    if (size_ < kCapacity) {
      slots_[(start_ + size_++) % kCapacity] = slot;
    } else {
      slots_[start_] = slot;
      start_ = (start_ + 1) % kCapacity;
    }
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// \p i = 0 is the oldest instruction, size() - 1 the newest.
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
    return slots_[(start_ + i) % kCapacity];
  }
  [[nodiscard]] std::uint32_t back() const { return (*this)[size_ - 1]; }

 private:
  std::array<std::uint32_t, kCapacity> slots_{};
  std::uint8_t start_ = 0;
  std::uint8_t size_ = 0;
};

/// The first of \p ranges (sorted by `addr`, disjoint) that starts above
/// \p addr: only the one before it can hold \p addr.
template <typename Range>
[[nodiscard]] auto first_above(const std::vector<Range>& ranges,
                               std::uint64_t addr) {
  return std::upper_bound(
      ranges.begin(), ranges.end(), addr,
      [](std::uint64_t a, const Range& r) { return a < r.addr; });
}

class CodeView {
 public:
  /// Throws ParseError when the code runs hold more bytes than the file
  /// (aliased section headers) or 2^32 bytes or more (slot numbers are
  /// 32-bit).
  explicit CodeView(const elf::ElfFile& elf);
  /// Raises the `codeview_peak_bytes` gauge to the view's memory.
  ~CodeView();

  CodeView(const CodeView&) = delete;
  CodeView& operator=(const CodeView&) = delete;

  [[nodiscard]] const elf::ElfFile& elf() const { return elf_; }

  /// True if \p addr lies in an executable section.
  [[nodiscard]] bool is_code(std::uint64_t addr) const {
    return elf_.is_code_address(addr);
  }

  /// A decoded address' slot number and flow step; `step` is null when
  /// \p addr is not in code or its bytes are invalid.
  struct Rec {
    std::uint32_t slot = 0;
    const Step* step = nullptr;
  };
  /// Looks \p addr up in the dense cache, decoding it on first touch. The
  /// step is stable for the CodeView's lifetime. Safe to call from
  /// multiple threads; reads of already-decoded addresses are wait-free.
  [[nodiscard]] Rec rec_at(std::uint64_t addr) const {
    const Shard* shard = shard_at(addr);
    if (shard == nullptr) {
      return {};
    }
    const std::uint64_t off = addr - shard->addr;
    // Deliberately uninstrumented: even a striped relaxed fetch_add is
    // an atomic RMW (~6 ns) on this ~4 ns read, more than doubling
    // bench_micro's gated step_at_warm_dense. The decode (cold) path
    // carries the codeview_* counters instead.
    std::uint32_t state = shard->slots[off].load(std::memory_order_acquire);
    if (state < kFirstStep) {
      state = state == kInvalid ? kInvalid : decode_slot(*shard, off);
      if (state == kInvalid) {
        return {};
      }
    }
    return {static_cast<std::uint32_t>(shard->base + off),
            &steps_[state - kFirstStep]};
  }
  /// The step behind a slot number from rec_at (or an InsnWindow).
  [[nodiscard]] const Step& step(std::uint32_t slot) const {
    const Shard& shard = shard_of(slot);
    return steps_[shard.slots[slot - shard.base].load(
                      std::memory_order_acquire) -
                  kFirstStep];
  }

  /// Decodes the instruction at \p addr afresh, with the cache's decode
  /// window; nullopt where rec_at gives no step. Leaves the cache untouched
  /// and counts one `codeview_redecodes_total`, as redecode() does.
  [[nodiscard]] std::optional<x86::Insn> decode(std::uint64_t addr) const;
  /// The full instruction behind a slot number from rec_at (or an
  /// InsnWindow), re-decoded into \p out, storage the caller owns.
  void redecode(std::uint32_t slot, x86::Insn& out) const;

  /// The address operands discovery and pointer probing read: the
  /// RIP-relative memory target (meaningful when the step has
  /// kHasMemTarget) and the immediate (when it has kImmInSection). Read
  /// from the step's target, or re-decoded when the instruction has both.
  struct Operands {
    std::uint64_t mem = 0;
    std::uint64_t imm = 0;
  };
  [[nodiscard]] Operands operands(std::uint32_t slot, const Step& step) const;

  /// Occupancy of the dense cache (computed by scanning the slot arrays;
  /// diagnostics/benchmarks only, not for the hot path).
  struct CacheStats {
    std::uint64_t code_bytes = 0;  ///< total slots (file-backed code bytes)
    std::uint64_t decoded = 0;     ///< slots holding a decoded step
    std::uint64_t invalid = 0;     ///< slots marked undecodable
  };
  [[nodiscard]] CacheStats cache_stats() const;

  /// Number of steps in the arena. Because a slot is claimed before
  /// decoding, this equals the number of distinct addresses ever decoded
  /// successfully into the cache (no double-decode).
  [[nodiscard]] std::uint64_t decoded_steps() const {
    return arena_next_.load(std::memory_order_relaxed);
  }

  /// Raw bytes at a virtual address (any allocated section).
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> bytes_at(
      std::uint64_t addr, std::uint64_t len) const {
    return elf_.bytes_at(addr, len);
  }

  /// One decode shard as an address range [addr, addr + count), whose
  /// slots are numbered base .. base + count - 1 across all shards.
  struct SlotRange {
    std::uint64_t addr = 0;
    std::uint64_t count = 0;
    std::uint64_t base = 0;
  };
  /// Every shard's range, in address order; the ranges are disjoint.
  [[nodiscard]] std::vector<SlotRange> slot_ranges() const;

 private:
  /// Dense cache of one code run: one atomic slot per byte, read from the
  /// run's owning section. A decode window stops at the run's end, so it
  /// never reads into a neighboring section.
  struct Shard : SlotRange {
    const std::uint8_t* bytes = nullptr;
    std::unique_ptr<std::atomic<std::uint32_t>[]> slots;
  };

  // Slot states. Values >= kFirstStep are arena indices shifted by
  // kFirstStep; the transitions are kEmpty -> kDecoding -> (step |
  // kInvalid), each a single atomic operation.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kDecoding = 1;
  static constexpr std::uint32_t kInvalid = 2;
  static constexpr std::uint32_t kFirstStep = 3;

  /// An append-only arena of steps that grows in geometrically sized
  /// buckets (bucket b holds 2^b * 256 steps), so memory stays
  /// proportional to the number of decoded instructions while published
  /// steps never move. Buckets are raw storage and a step is constructed
  /// when it is published, so a bucket's pages are touched only as steps
  /// land in them.
  class StepArena {
   public:
    static constexpr unsigned kBucket0Shift = 8;  // 256 steps
    static constexpr unsigned kMaxBuckets = 24;
    static constexpr std::uint64_t kCapacity =
        ((std::uint64_t{1} << kMaxBuckets) - 1) << kBucket0Shift;

    StepArena() = default;
    StepArena(const StepArena&) = delete;
    StepArena& operator=(const StepArena&) = delete;
    ~StepArena() {
      for (unsigned b = 0; b < kMaxBuckets; ++b) {
        if (Step* bucket = buckets_[b].load(std::memory_order_relaxed)) {
          std::allocator<Step>().deallocate(bucket, capacity(b));
        }
      }
    }

    [[nodiscard]] const Step& operator[](std::uint32_t index) const {
      const unsigned b = bucket_of(index);
      return buckets_[b].load(std::memory_order_acquire)[index - base(b)];
    }
    /// Constructs the step at \p index; each index is published once.
    void publish(std::uint32_t index, const Step& value) {
      const unsigned b = bucket_of(index);
      Step* bucket = buckets_[b].load(std::memory_order_acquire);
      if (bucket == nullptr) {
        Step* fresh = std::allocator<Step>().allocate(capacity(b));
        if (buckets_[b].compare_exchange_strong(bucket, fresh,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
          bucket = fresh;
        } else {  // another thread won the allocation race
          std::allocator<Step>().deallocate(fresh, capacity(b));
        }
      }
      std::construct_at(bucket + (index - base(b)), value);
    }
    /// Bytes held by the allocated buckets.
    [[nodiscard]] std::uint64_t bytes() const {
      std::uint64_t total = 0;
      for (unsigned b = 0; b < kMaxBuckets; ++b) {
        if (buckets_[b].load(std::memory_order_acquire) != nullptr) {
          total += capacity(b) * sizeof(Step);
        }
      }
      return total;
    }

   private:
    [[nodiscard]] static unsigned bucket_of(std::uint32_t index) {
      // One instruction on the warm-read path (vs a shift loop).
      return static_cast<unsigned>(
          std::bit_width((index >> kBucket0Shift) + 1u) - 1);
    }
    [[nodiscard]] static std::uint32_t base(unsigned bucket) {
      return ((1u << bucket) - 1u) << kBucket0Shift;
    }
    [[nodiscard]] static std::size_t capacity(unsigned bucket) {
      return std::size_t{1} << (bucket + kBucket0Shift);
    }

    std::atomic<Step*> buckets_[kMaxBuckets] = {};
  };

  /// The shard holding \p addr, or null.
  [[nodiscard]] const Shard* shard_at(std::uint64_t addr) const;
  /// The shard whose slots are numbered through \p slot.
  [[nodiscard]] const Shard& shard_of(std::uint32_t slot) const {
    return *std::prev(std::upper_bound(
        shards_.begin(), shards_.end(), slot,
        [](std::uint64_t s, const Shard& shard) { return s < shard.base; }));
  }
  /// Claims and decodes an empty slot (or waits for the thread that holds
  /// the claim); returns the slot's final state.
  [[nodiscard]] std::uint32_t decode_slot(const Shard& shard,
                                          std::uint64_t off) const;
  [[nodiscard]] std::optional<x86::Insn> decode_at(const Shard& shard,
                                                   std::uint64_t off) const;
  [[nodiscard]] Step make_step(const x86::Insn& insn) const;

  const elf::ElfFile& elf_;
  std::vector<Shard> shards_;  // sorted by addr; slots mutated atomically
  mutable std::atomic<std::uint32_t> arena_next_{0};
  // A step is published before its slot's release store.
  mutable StepArena steps_;
};

/// A set of addresses stored as one bit per decode slot of a CodeView,
/// plus an ordered spill set for the rare address outside every slot, so
/// membership is exact for any address. Drop-in for the std::set
/// operations the analyses use; lookups probe the largest code run first,
/// so a typical query is one compare and one bit test. Range inserts and
/// gap queries work a 64-bit word at a time inside slots.
class AddrSet {
 public:
  /// A half-open address range [lo, hi).
  struct Range {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    friend bool operator==(const Range&, const Range&) = default;
  };

  AddrSet() = default;
  explicit AddrSet(const CodeView& code) : ranges_(code.slot_ranges()) {
    for (std::size_t r = 0; r < ranges_.size(); ++r) {
      if (ranges_[r].count > ranges_[largest_].count) {
        largest_ = r;
      }
    }
    words_.resize(ranges_.empty()
                      ? 0
                      : (ranges_.back().base + ranges_.back().count + 63) / 64);
  }

  [[nodiscard]] std::size_t count(std::uint64_t addr) const {
    const std::uint64_t i = index(addr);
    return i == kNone ? spill_.count(addr) : (words_[i / 64] >> (i % 64)) & 1u;
  }
  /// True when \p addr was not yet a member.
  bool insert(std::uint64_t addr) {
    const std::uint64_t i = index(addr);
    const bool added = i == kNone ? spill_.insert(addr).second
                                  : ((words_[i / 64] >> (i % 64)) & 1u) == 0;
    if (added && i != kNone) {
      words_[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    size_ += added ? 1 : 0;
    return added;
  }
  /// Adds every address in [lo, hi); outside every slot, one spill member
  /// per address.
  void insert_range(std::uint64_t lo, std::uint64_t hi) {
    while (lo < hi) {
      const Run run = run_at(lo, hi);
      if (run.bit == kNone) {
        for (; lo < run.end; ++lo) {
          size_ += spill_.insert(lo).second ? 1 : 0;
        }
        continue;
      }
      const std::uint64_t end = run.bit + (run.end - lo);
      for (std::uint64_t i = run.bit; i < end;) {
        const std::uint64_t n = std::min(64 - i % 64, end - i);
        const std::uint64_t mask = (~std::uint64_t{0} >> (64 - n)) << (i % 64);
        size_ += std::popcount(mask & ~words_[i / 64]);
        words_[i / 64] |= mask;
        i += n;
      }
      lo = run.end;
    }
  }
  void erase(std::uint64_t addr) {
    const std::uint64_t i = index(addr);
    if (i == kNone) {
      size_ -= spill_.erase(addr);
    } else if (((words_[i / 64] >> (i % 64)) & 1u) != 0) {
      words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
      --size_;
    }
  }
  /// Empties the set, whose members are exactly \p members, and leaves
  /// \p members ascending. Slot bits follow address order, so members
  /// dense in their span are read back by sweeping the span's words;
  /// sparse ones are sorted. Either way the cost is O(members), never
  /// O(span).
  void clear_sorted(std::vector<std::uint64_t>& members);
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The maximal sub-ranges of [lo, hi) that hold no member, ascending.
  [[nodiscard]] std::vector<Range> gaps(std::uint64_t lo,
                                        std::uint64_t hi) const {
    std::vector<Range> out;
    auto gap = [&](std::uint64_t from, std::uint64_t to) {
      if (!out.empty() && out.back().hi == from) {
        out.back().hi = to;  // continues across a run boundary
      } else {
        out.push_back({from, to});
      }
    };
    while (lo < hi) {
      const Run run = run_at(lo, hi);
      if (run.bit == kNone) {
        for (auto it = spill_.lower_bound(lo); lo < run.end;) {
          const std::uint64_t member =
              it != spill_.end() && *it < run.end ? *it++ : run.end;
          if (lo < member) {
            gap(lo, member);
          }
          lo = member == run.end ? member : member + 1;
        }
        continue;
      }
      const std::uint64_t end = run.bit + (run.end - lo);
      for (std::uint64_t i = run.bit; i < end;) {
        const std::uint64_t clear = next_bit(i, end, false);
        i = next_bit(clear, end, true);
        if (clear < i) {
          gap(lo + (clear - run.bit), lo + (i - run.bit));
        }
      }
      lo = run.end;
    }
    return out;
  }

  /// Calls \p f on every member: slot-backed ones in ascending address
  /// order, then the spill set.
  template <typename F>
  void for_each(F&& f) const {
    std::size_t r = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const std::uint64_t i = w * 64 + std::countr_zero(bits);
        while (i >= ranges_[r].base + ranges_[r].count) {
          ++r;
        }
        f(ranges_[r].addr + (i - ranges_[r].base));
      }
    }
    for (const std::uint64_t addr : spill_) {
      f(addr);
    }
  }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  /// The bit of \p addr, or kNone. Nearly every query lands in the
  /// largest range (.text): one compare.
  [[nodiscard]] std::uint64_t index(std::uint64_t addr) const {
    if (!ranges_.empty()) {
      const CodeView::SlotRange& big = ranges_[largest_];
      if (addr - big.addr < big.count) {
        return big.base + (addr - big.addr);
      }
    }
    return run_at(addr, addr).bit;
  }

  /// The addresses [addr, end) map to the consecutive bits from `bit`, or
  /// all lie outside every slot (`bit` is kNone).
  struct Run {
    std::uint64_t bit = kNone;
    std::uint64_t end = 0;
  };
  /// The longest such run from \p addr, cut at \p hi: to the end of the
  /// range holding \p addr, else to the start of the next range.
  [[nodiscard]] Run run_at(std::uint64_t addr, std::uint64_t hi) const {
    const auto next = first_above(ranges_, addr);
    if (next != ranges_.begin()) {
      const CodeView::SlotRange& r = *std::prev(next);
      if (addr - r.addr < r.count) {
        return {r.base + (addr - r.addr), std::min(hi, r.addr + r.count)};
      }
    }
    return {kNone, next == ranges_.end() ? hi : std::min(hi, next->addr)};
  }

  /// The first bit in [i, end) equal to \p set, or \p end.
  [[nodiscard]] std::uint64_t next_bit(std::uint64_t i, std::uint64_t end,
                                       bool set) const {
    while (i < end) {
      const std::uint64_t word = set ? words_[i / 64] : ~words_[i / 64];
      const std::uint64_t bits = word & (~std::uint64_t{0} << (i % 64));
      if (bits != 0) {
        return std::min(end, i - i % 64 + std::countr_zero(bits));
      }
      i += 64 - i % 64;
    }
    return end;
  }

  std::vector<CodeView::SlotRange> ranges_;  // address order, disjoint
  std::size_t largest_ = 0;
  std::vector<std::uint64_t> words_;
  std::set<std::uint64_t> spill_;
  std::size_t size_ = 0;
};

}  // namespace fetch::disasm
