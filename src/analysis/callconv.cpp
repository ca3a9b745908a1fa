#include "analysis/callconv.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "x86/insn.hpp"

namespace fetch::analysis {

namespace {

using disasm::Step;
using x86::Kind;
using x86::Reg;

/// Maximum instructions examined along each path.
constexpr std::size_t kMaxDepth = 48;
/// Maximum distinct paths explored (branches fork paths).
constexpr std::size_t kMaxPaths = 64;

constexpr std::uint16_t kArgRegs =
    reg_bit(Reg::kRdi) | reg_bit(Reg::kRsi) | reg_bit(Reg::kRdx) |
    reg_bit(Reg::kRcx) | reg_bit(Reg::kR8) | reg_bit(Reg::kR9);

struct PathState {
  std::uint64_t addr = 0;
  std::uint16_t initialized = kArgRegs | reg_bit(Reg::kRsp);
  std::size_t depth = 0;
};

/// The (address, initialized registers) states one check has explored: an
/// open-addressing table in one flat buffer, emptied per check in O(1) by
/// bumping the epoch its live entries carry.
class SeenStates {
 public:
  void clear() {
    size_ = 0;
    if (++epoch_ == 0) {  // wrapped: old stamps would read as live
      std::fill(table_.begin(), table_.end(), Entry{});
      epoch_ = 1;
    }
  }
  /// True when the state was not yet seen since the last clear().
  bool insert(std::uint64_t addr, std::uint16_t regs) {
    if (2 * (size_ + 1) > table_.size()) {
      grow();
    }
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = slot(addr, regs);; i = (i + 1) & mask) {
      Entry& e = table_[i];
      if (e.epoch != epoch_) {
        e = {addr, regs, epoch_};
        ++size_;
        return true;
      }
      if (e.addr == addr && e.regs == regs) {
        return false;
      }
    }
  }

 private:
  struct Entry {
    std::uint64_t addr = 0;
    std::uint16_t regs = 0;
    std::uint32_t epoch = 0;
  };

  [[nodiscard]] std::size_t slot(std::uint64_t addr,
                                 std::uint16_t regs) const {
    const std::uint64_t h =
        (addr ^ (std::uint64_t{regs} << 48)) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> (64 - std::countr_zero(table_.size())));
  }
  void grow() {
    std::vector<Entry> old(std::max<std::size_t>(256, 2 * table_.size()));
    old.swap(table_);
    size_ = 0;
    for (const Entry& e : old) {
      if (e.epoch == epoch_) {
        insert(e.addr, e.regs);
      }
    }
  }

  std::vector<Entry> table_;  // power-of-two size
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
};

}  // namespace

bool meets_calling_convention(const disasm::CodeView& code,
                              std::uint64_t entry) {
  // One FIFO of paths and one seen table per thread, reused by every check.
  thread_local std::vector<PathState> work;
  thread_local SeenStates seen;
  work.assign(1, {entry, kArgRegs | reg_bit(Reg::kRsp), 0});
  seen.clear();

  for (std::size_t head = 0; head < work.size(); ++head) {
    PathState st = work[head];
    for (bool more = true; more && st.depth < kMaxDepth;) {
      if (!seen.insert(st.addr, st.initialized)) {
        break;  // state already explored
      }
      const Step* step = code.rec_at(st.addr).step;
      if (step == nullptr) {
        break;  // undecodable code is handled by the caller's other checks
      }
      ++st.depth;

      // Reads of uninitialized non-argument registers are violations,
      // except: push (callee-save spill), leave (callee-save restore, the
      // counterpart of `pop rbp`), and rsp-relative addressing.
      std::uint16_t reads = step->regs_read;
      reads &= ~static_cast<std::uint16_t>(reg_bit(Reg::kRsp));
      if (step->kind == Kind::kPush || step->kind == Kind::kLeave) {
        reads = 0;  // spilling/restoring a register is not a value use
      }
      if ((reads & ~st.initialized) != 0) {
        return false;
      }
      st.initialized |= step->regs_written;

      switch (step->kind) {
        case Kind::kRet:
        case Kind::kUd2:
        case Kind::kHlt:
        case Kind::kJmpIndirect:
        // A call clobbers/defines all caller-saved state and returns a
        // value; after it, treat everything as initialized (the check is
        // about the *entry* convention).
        case Kind::kCallDirect:
        case Kind::kCallIndirect:
          more = false;
          break;
        case Kind::kJmpDirect:
          more = step->has(Step::kTargetIsCode);
          st.addr = step->target;
          break;
        case Kind::kCondJmp:
          if (step->has(Step::kTargetIsCode) &&
              work.size() < kMaxPaths) {
            work.push_back({step->target, st.initialized, st.depth});
          }
          st.addr += step->length;
          break;
        default:
          st.addr += step->length;
          break;
      }
    }
  }
  return true;
}

}  // namespace fetch::analysis
