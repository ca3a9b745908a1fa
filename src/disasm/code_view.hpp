#pragma once

/// \file code_view.hpp
/// Decode-on-demand view of a binary's executable sections with a
/// lock-free dense decode cache. All disassembly passes share one CodeView
/// per binary so an address is decoded at most once; concurrent strategy
/// cells of the parallel evaluation engine share one CodeView per corpus
/// entry (see DESIGN.md, "Hot path: the dense decode cache").
///
/// Layout: one atomic 32-bit slot per executable-section byte, indexed by
/// section offset. A slot is either empty, claimed-for-decoding, invalid,
/// or an index into an append-only arena of packed instruction records.
/// Reads of decoded/invalid slots are a single acquire load — wait-free,
/// no lock, no hashing, no rehash ever. The first thread to reach an
/// address claims its slot with one compare-exchange (empty → decoding)
/// and publishes the record (decoding → decoded), so no byte is ever
/// decoded twice.

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

/// The last (up to) 32 instructions on a path, oldest first: a fixed ring
/// copied by value, so forking a path never allocates. The pointers point
/// into a CodeView's record arena and stay valid for its lifetime.
class InsnWindow {
 public:
  static constexpr std::size_t kCapacity = 32;

  void push(const x86::Insn* insn) {
    if (size_ < kCapacity) {
      slots_[(start_ + size_++) % kCapacity] = insn;
    } else {
      slots_[start_] = insn;
      start_ = (start_ + 1) % kCapacity;
    }
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// \p i = 0 is the oldest instruction, size() - 1 the newest.
  [[nodiscard]] const x86::Insn* operator[](std::size_t i) const {
    return slots_[(start_ + i) % kCapacity];
  }
  [[nodiscard]] const x86::Insn* back() const { return (*this)[size_ - 1]; }

 private:
  std::array<const x86::Insn*, kCapacity> slots_{};
  std::uint8_t start_ = 0;
  std::uint8_t size_ = 0;
};

class CodeView {
 public:
  explicit CodeView(const elf::ElfFile& elf);
  ~CodeView();

  CodeView(const CodeView&) = delete;
  CodeView& operator=(const CodeView&) = delete;

  [[nodiscard]] const elf::ElfFile& elf() const { return elf_; }

  /// True if \p addr lies in an executable section.
  [[nodiscard]] bool is_code(std::uint64_t addr) const {
    return elf_.is_code_address(addr);
  }

  /// Decodes (with dense memoization) the instruction at \p addr.
  /// nullptr when \p addr is not in code or the bytes are invalid. The
  /// returned pointer is stable for the CodeView's lifetime. Safe to call
  /// from multiple threads; reads of already-decoded addresses are
  /// wait-free.
  [[nodiscard]] const x86::Insn* insn_at(std::uint64_t addr) const {
    const Shard* shard = shard_at(addr);
    if (shard == nullptr) {
      return nullptr;
    }
    const std::uint64_t off = addr - shard->addr;
    // Deliberately uninstrumented: even a striped relaxed fetch_add is
    // an atomic RMW (~6 ns) on this ~4 ns read, which the
    // warm_speedup_vs_mutex_map bench gate rejects. The decode (cold)
    // path carries the codeview_* counters instead.
    const std::uint32_t slot =
        shard->slots[off].load(std::memory_order_acquire);
    if (slot >= kFirstRecord) {
      return record_at(slot - kFirstRecord);
    }
    if (slot == kInvalid) {
      return nullptr;
    }
    return decode_slot(*shard, off, addr);
  }

  /// Eagerly decodes every executable section (linear sweep with one-byte
  /// resynchronization), sharded over up to \p jobs workers
  /// (0 = FETCH_JOBS/hardware default). Afterwards every insn_at on a
  /// sweep-reachable address is a warm wait-free read. Idempotent and safe
  /// to run concurrently with readers.
  void predecode(std::size_t jobs = 0) const;

  /// Occupancy of the dense cache (computed by scanning the slot arrays;
  /// diagnostics/benchmarks only, not for the hot path).
  struct CacheStats {
    std::uint64_t code_bytes = 0;  ///< total slots (executable bytes)
    std::uint64_t decoded = 0;     ///< slots holding a decoded record
    std::uint64_t invalid = 0;     ///< slots marked undecodable
  };
  [[nodiscard]] CacheStats cache_stats() const;

  /// Number of packed instruction records in the arena. Because a slot is
  /// claimed before decoding, this equals the number of distinct addresses
  /// ever decoded successfully (no double-decode).
  [[nodiscard]] std::uint64_t decoded_records() const {
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
  /// Every shard's range, in address order.
  [[nodiscard]] std::vector<SlotRange> slot_ranges() const;

 private:
  /// Dense per-section cache: one atomic slot per code byte. `slot_count`
  /// is clamped to the section's file-backed bytes, so a decode window can
  /// never extend past the section (or into a neighboring one).
  struct Shard {
    std::uint64_t addr = 0;
    std::uint64_t slot_count = 0;
    const std::uint8_t* bytes = nullptr;
    std::unique_ptr<std::atomic<std::uint32_t>[]> slots;
  };

  // Slot states. Values >= kFirstRecord are arena indices shifted by
  // kFirstRecord; the transitions are kEmpty -> kDecoding -> (record |
  // kInvalid), each a single atomic operation.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kDecoding = 1;
  static constexpr std::uint32_t kInvalid = 2;
  static constexpr std::uint32_t kFirstRecord = 3;

  // The record arena grows in geometrically sized buckets (bucket b holds
  // 2^b * kBucket0Size records), so memory stays proportional to the
  // number of decoded instructions while published records never move.
  static constexpr unsigned kBucket0Shift = 8;  // 256 records
  static constexpr unsigned kMaxBuckets = 24;

  [[nodiscard]] static unsigned bucket_of(std::uint32_t index) {
    // One instruction on the warm-read path (vs a shift loop).
    return static_cast<unsigned>(
        std::bit_width((index >> kBucket0Shift) + 1u) - 1);
  }
  [[nodiscard]] static std::uint32_t bucket_base(unsigned bucket) {
    return ((1u << bucket) - 1u) << kBucket0Shift;
  }
  [[nodiscard]] static std::uint32_t bucket_capacity(unsigned bucket) {
    return 1u << (bucket + kBucket0Shift);
  }

  [[nodiscard]] const Shard* shard_at(std::uint64_t addr) const;
  [[nodiscard]] const x86::Insn* record_at(std::uint32_t index) const {
    const unsigned b = bucket_of(index);
    return buckets_[b].load(std::memory_order_acquire) + (index - bucket_base(b));
  }
  [[nodiscard]] std::uint32_t append_record(const x86::Insn& insn) const;
  [[nodiscard]] const x86::Insn* decode_slot(const Shard& shard,
                                             std::uint64_t off,
                                             std::uint64_t addr) const;

  const elf::ElfFile& elf_;
  std::vector<Shard> shards_;  // sorted by addr; slots mutated atomically
  mutable std::atomic<std::uint32_t> arena_next_{0};
  mutable std::atomic<x86::Insn*> buckets_[kMaxBuckets] = {};
};

/// A set of addresses stored as one bit per decode slot of a CodeView,
/// plus an ordered spill set for the rare address outside every slot, so
/// membership is exact for any address. Drop-in for the std::set
/// operations the analyses use; lookups probe the largest code section
/// first, so a typical query is one compare and one bit test.
class AddrSet {
 public:
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
  void erase(std::uint64_t addr) {
    const std::uint64_t i = index(addr);
    if (i == kNone) {
      size_ -= spill_.erase(addr);
    } else if (((words_[i / 64] >> (i % 64)) & 1u) != 0) {
      words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
      --size_;
    }
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Calls \p f on every member: slot-backed ones in slot order (address
  /// order unless executable sections overlap), then the spill set.
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

  [[nodiscard]] std::uint64_t index(std::uint64_t addr) const {
    if (ranges_.empty()) {
      return kNone;
    }
    const CodeView::SlotRange& big = ranges_[largest_];
    if (addr - big.addr < big.count) {
      return big.base + (addr - big.addr);
    }
    for (const CodeView::SlotRange& r : ranges_) {
      if (addr - r.addr < r.count) {
        return r.base + (addr - r.addr);
      }
    }
    return kNone;
  }

  std::vector<CodeView::SlotRange> ranges_;  // address order
  std::size_t largest_ = 0;
  std::vector<std::uint64_t> words_;
  std::set<std::uint64_t> spill_;
  std::size_t size_ = 0;
};

}  // namespace fetch::disasm
