#pragma once

/// \file walk.hpp
/// The path walker shared by every control-flow pass (recursive discovery,
/// function construction, the no-return fixpoint, pointer probing): a FIFO
/// of work items, each a start address plus the instruction window of the
/// path that queued it, followed by fallthrough until the pass ends it.
/// A walk reads each instruction's 16-byte Step; passes re-decode the full
/// instruction only where a decision needs more.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "disasm/code_view.hpp"

namespace fetch::disasm {

/// How a walked path continues after an instruction: to the next one, not
/// at all, or not at all and neither does the rest of the walk.
enum class Flow { kFall, kEnd, kDone };

/// Falls through unless the instruction ends its block (a pass decides
/// direct calls itself).
[[nodiscard]] inline Flow fall_of(const Step& step) {
  switch (step.kind) {
    case x86::Kind::kJmpDirect:
    case x86::Kind::kJmpIndirect:
    case x86::Kind::kRet:
    case x86::Kind::kUd2:
    case x86::Kind::kHlt:
      return Flow::kEnd;
    default:
      return Flow::kFall;
  }
}

struct WorkItem {
  std::uint64_t addr;
  InsnWindow window;
};

/// FIFO of work items on one vector; the consumed prefix is dropped in
/// bulk, so a pop never allocates and memory tracks the live items.
class WorkQueue {
 public:
  void push(std::uint64_t addr, const InsnWindow& window = {}) {
    items_.push_back({addr, window});
  }
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  void clear() {
    items_.clear();
    head_ = 0;
  }
  WorkItem pop() {
    WorkItem item = items_[head_++];
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= 1024 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return item;
  }

 private:
  std::vector<WorkItem> items_;
  std::size_t head_ = 0;
};

/// Pops work items and follows each path by fallthrough while the next
/// address is code. `claim(addr)` yields the slot to visit (a null step
/// ends the path); `visit(addr, step, window)` handles its successors (the
/// window already ends with its slot). Returns true when a visit ended
/// the whole walk with Flow::kDone.
template <typename Claim, typename Visit>
bool walk(WorkQueue& work, Claim&& claim, Visit&& visit) {
  while (!work.empty()) {
    auto [addr, window] = work.pop();
    for (CodeView::Rec rec = claim(addr); rec.step != nullptr;
         rec = claim(addr)) {
      window.push(rec.slot);
      const Flow flow = visit(addr, *rec.step, window);
      if (flow == Flow::kDone) {
        work.clear();
        return true;
      }
      if (flow == Flow::kEnd || !rec.step->has(Step::kNextIsCode)) {
        break;
      }
      addr += rec.step->length;
    }
  }
  return false;
}

}  // namespace fetch::disasm
