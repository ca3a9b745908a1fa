#include "disasm/code_view.hpp"

#include <algorithm>
#include <thread>
#include <type_traits>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "x86/decoder.hpp"

namespace fetch::disasm {

namespace {

/// x86-64 instructions are at most 15 bytes; the decode window never needs
/// more, and the shard clamp keeps it from crossing the section end.
constexpr std::uint64_t kMaxInsnBytes = 15;

// The arena stores instructions as flat, trivially-copyable records — a
// publish is a plain struct copy followed by one release store.
static_assert(std::is_trivially_copyable_v<x86::Insn>,
              "arena records must be flat copyable structs");

/// Cold-path decode-cache counters (global registry: CodeViews are
/// per-binary and ephemeral, the aggregate is what matters). Looked up
/// once; the handles are stable references.
struct CacheMetrics {
  obs::Counter& claims;           ///< slots won (empty → decoding)
  obs::Counter& decoded;          ///< claims published as records
  obs::Counter& invalid;          ///< claims published as undecodable
  obs::Counter& resync_failures;  ///< 1-byte resteps during predecode

  static CacheMetrics& get() {
    static CacheMetrics metrics{
        obs::Registry::global().counter("codeview_slot_claims_total"),
        obs::Registry::global().counter("codeview_decoded_total"),
        obs::Registry::global().counter("codeview_invalid_total"),
        obs::Registry::global().counter("codeview_resync_failures_total"),
    };
    return metrics;
  }
};

}  // namespace

CodeView::CodeView(const elf::ElfFile& elf) : elf_(elf) {
  for (const elf::Section& sec : elf_.sections()) {
    if (!sec.executable() || !sec.alloc() || sec.size == 0) {
      continue;
    }
    const auto bytes = elf_.section_bytes(sec);
    Shard shard;
    shard.addr = sec.addr;
    // SHT_NOBITS (or truncated) executable sections have no file bytes to
    // decode; clamping the slot count here is what guarantees insn_at can
    // never read past the section's file-backed extent.
    shard.slot_count = std::min<std::uint64_t>(sec.size, bytes.size());
    if (shard.slot_count == 0) {
      continue;
    }
    shard.bytes = bytes.data();
    shard.slots =
        std::make_unique<std::atomic<std::uint32_t>[]>(shard.slot_count);
    shards_.push_back(std::move(shard));
  }
  std::sort(shards_.begin(), shards_.end(),
            [](const Shard& a, const Shard& b) { return a.addr < b.addr; });
}

std::vector<CodeView::SlotRange> CodeView::slot_ranges() const {
  std::vector<SlotRange> ranges;
  std::uint64_t base = 0;
  for (const Shard& shard : shards_) {
    ranges.push_back({shard.addr, shard.slot_count, base});
    base += shard.slot_count;
  }
  return ranges;
}

CodeView::~CodeView() {
  for (std::atomic<x86::Insn*>& bucket : buckets_) {
    delete[] bucket.load(std::memory_order_relaxed);
  }
}

const CodeView::Shard* CodeView::shard_at(std::uint64_t addr) const {
  // Binaries have a handful of executable sections at most; an upper_bound
  // over the sorted shard list keeps the hot path branch-poor.
  const auto it = std::upper_bound(
      shards_.begin(), shards_.end(), addr,
      [](std::uint64_t a, const Shard& s) { return a < s.addr; });
  if (it == shards_.begin()) {
    return nullptr;
  }
  const Shard& shard = *std::prev(it);
  return addr - shard.addr < shard.slot_count ? &shard : nullptr;
}

std::uint32_t CodeView::append_record(const x86::Insn& insn) const {
  const std::uint32_t index =
      arena_next_.fetch_add(1, std::memory_order_relaxed);
  FETCH_ASSERT(index < (bucket_base(kMaxBuckets - 1) +
                        bucket_capacity(kMaxBuckets - 1)) -
                           kFirstRecord);
  const unsigned b = bucket_of(index);
  x86::Insn* bucket = buckets_[b].load(std::memory_order_acquire);
  if (bucket == nullptr) {
    x86::Insn* fresh = new x86::Insn[bucket_capacity(b)];
    if (buckets_[b].compare_exchange_strong(bucket, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      bucket = fresh;
    } else {
      delete[] fresh;  // another thread won the allocation race
    }
  }
  bucket[index - bucket_base(b)] = insn;
  return index;
}

const x86::Insn* CodeView::decode_slot(const Shard& shard, std::uint64_t off,
                                       std::uint64_t addr) const {
  std::atomic<std::uint32_t>& slot = shard.slots[off];
  std::uint32_t state = slot.load(std::memory_order_acquire);
  for (;;) {
    if (state >= kFirstRecord) {
      return record_at(state - kFirstRecord);
    }
    if (state == kInvalid) {
      return nullptr;
    }
    if (state == kEmpty &&
        slot.compare_exchange_strong(state, kDecoding,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      // We own the claim: decode once, publish once. The window is clamped
      // to the shard so it cannot cross the section boundary.
      CacheMetrics& metrics = CacheMetrics::get();
      metrics.claims.add();
      const std::uint64_t window =
          std::min<std::uint64_t>(kMaxInsnBytes, shard.slot_count - off);
      const auto insn = x86::decode({shard.bytes + off, window}, addr);
      if (!insn) {
        metrics.invalid.add();
        slot.store(kInvalid, std::memory_order_release);
        return nullptr;
      }
      const std::uint32_t index = append_record(*insn);
      metrics.decoded.add();
      slot.store(index + kFirstRecord, std::memory_order_release);
      return record_at(index);
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

void CodeView::predecode(std::size_t jobs) const {
  // Shard each section into fixed byte ranges so the pool's workers warm
  // disjoint stretches. A range's first bytes may sit mid-instruction;
  // that only decodes a few extra (cached) addresses, and a decode started
  // before the range end may complete past it, which is exactly the warm
  // state the linear consumers want.
  constexpr std::uint64_t kRangeBytes = 1u << 14;
  struct Range {
    const Shard* shard;
    std::uint64_t lo;
    std::uint64_t hi;
  };
  std::vector<Range> ranges;
  for (const Shard& shard : shards_) {
    for (std::uint64_t lo = 0; lo < shard.slot_count; lo += kRangeBytes) {
      ranges.push_back(
          {&shard, lo, std::min(lo + kRangeBytes, shard.slot_count)});
    }
  }
  util::parallel_for(jobs, ranges.size(), [&](std::size_t i) {
    const Range& range = ranges[i];
    std::uint64_t off = range.lo;
    std::uint64_t resync_failures = 0;
    while (off < range.hi) {
      const x86::Insn* insn = insn_at(range.shard->addr + off);
      if (insn != nullptr) {
        off += insn->length;
      } else {
        off += 1;  // one-byte resynchronization
        ++resync_failures;
      }
    }
    if (resync_failures != 0) {
      CacheMetrics::get().resync_failures.add(resync_failures);
    }
  });
}

CodeView::CacheStats CodeView::cache_stats() const {
  CacheStats stats;
  for (const Shard& shard : shards_) {
    stats.code_bytes += shard.slot_count;
    for (std::uint64_t off = 0; off < shard.slot_count; ++off) {
      const std::uint32_t state =
          shard.slots[off].load(std::memory_order_relaxed);
      if (state >= kFirstRecord) {
        ++stats.decoded;
      } else if (state == kInvalid) {
        ++stats.invalid;
      }
    }
  }
  return stats;
}

}  // namespace fetch::disasm
