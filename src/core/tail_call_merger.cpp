#include "core/tail_call_merger.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <memory>

#include "analysis/callconv.hpp"
#include "analysis/stack_height.hpp"
#include "ehframe/cfi_eval.hpp"

namespace fetch::core {

namespace {

/// Reference oracle combining code xrefs and data-scan hits.
class RefOracle {
 public:
  RefOracle(const disasm::XRefs& xrefs, const std::set<std::uint64_t>& data)
      : xrefs_(xrefs), data_(data) {}

  /// True when \p target is referenced by anything other than direct
  /// jumps / jump tables whose site lies inside \p f.
  [[nodiscard]] bool referenced_outside(const disasm::Function& f,
                                        std::uint64_t target) const {
    if (data_.count(target) != 0) {
      return true;
    }
    for (const disasm::Ref& r : xrefs_.at(target)) {
      const bool is_jump_kind = r.kind == disasm::RefKind::kJump ||
                                r.kind == disasm::RefKind::kJumpTable;
      if (!is_jump_kind || !f.contains(r.site)) {
        return true;
      }
    }
    return false;
  }

 private:
  const disasm::XRefs& xrefs_;
  const std::set<std::uint64_t>& data_;
};

/// Stack height provider: CFI by default (with the §V-B completeness
/// gate), static analysis for the ablation mode.
class HeightOracle {
 public:
  HeightOracle(const disasm::CodeView& code, const eh::EhFrame& eh,
               const MergeOptions& options)
      : code_(code), eh_(eh), options_(options) {}

  /// Height at \p site inside \p f; std::nullopt means "unavailable, skip
  /// the function" (incomplete CFI — tracked by the caller).
  [[nodiscard]] std::optional<std::int64_t> height_at(
      const disasm::Function& f, std::uint64_t site) {
    if (options_.use_cfi_heights) {
      const eh::Fde* fde = eh_.fde_covering(site);
      if (fde == nullptr) {
        return std::nullopt;
      }
      auto it = tables_.find(fde->pc_begin);
      if (it == tables_.end()) {
        it = tables_
                 .emplace(fde->pc_begin,
                          eh::evaluate_cfi(eh_.cie_for(*fde), *fde))
                 .first;
      }
      if (!it->second) {
        return std::nullopt;  // malformed CFI
      }
      // Function-entry FDEs must pass the full §V-B completeness gate;
      // non-entry FDEs (merged cold parts) only need reliable rsp-based
      // rows throughout (their entry offset inherits the parent frame).
      const bool usable = fde->pc_begin == f.entry
                              ? it->second->complete_stack_height()
                              : it->second->all_rsp_based();
      if (!usable) {
        return std::nullopt;
      }
      return it->second->stack_height_at(site);
    }

    // Ablation: static stack analysis.
    const auto cached = static_heights_.find(f.entry);
    const analysis::HeightMap* hm;
    if (cached != static_heights_.end()) {
      hm = &cached->second;
    } else {
      const auto config = options_.static_dyninst_like
                              ? analysis::dyninst_like_config()
                              : analysis::angr_like_config();
      hm = &static_heights_
                .emplace(f.entry,
                         analysis::analyze_stack_heights(code_, f, config))
                .first->second;
    }
    const auto it = hm->find(site);
    if (it == hm->end()) {
      return std::nullopt;
    }
    return it->second;
  }

 private:
  const disasm::CodeView& code_;
  const eh::EhFrame& eh_;
  MergeOptions options_;
  std::map<std::uint64_t, std::optional<eh::CfiTable>> tables_;
  std::map<std::uint64_t, analysis::HeightMap> static_heights_;
};

}  // namespace

MergeOutcome merge_noncontiguous_functions(
    const disasm::CodeView& code, disasm::Result& state,
    const eh::EhFrame& eh, const std::set<std::uint64_t>& data_refs,
    const std::set<std::uint64_t>& fde_starts, const MergeOptions& options) {
  MergeOutcome outcome;
  RefOracle refs(state.xrefs, data_refs);
  HeightOracle heights(code, eh, options);

  // Iterate functions in address order; merging appends the absorbed
  // part's jumps to the current work queue so chains of parts collapse.
  std::vector<std::uint64_t> entries;
  entries.reserve(state.functions.size());
  for (const auto& [entry, fn] : state.functions) {
    entries.push_back(entry);
  }

  for (const std::uint64_t entry : entries) {
    const auto fn_it = state.functions.find(entry);
    if (fn_it == state.functions.end()) {
      continue;  // already merged into an earlier function
    }
    // Bodies are shared with the body cache and never written through:
    // the first merge copies the parent's body, and the merged copy
    // replaces it in the table.
    const disasm::FunctionTable::Body original = fn_it->second;
    std::shared_ptr<disasm::Function> merged;
    const disasm::Function* fn = original.get();

    std::deque<disasm::FuncJump> pending(fn->jumps.begin(), fn->jumps.end());
    bool skipped_logged = false;
    while (!pending.empty()) {
      const disasm::FuncJump j = pending.front();
      pending.pop_front();
      const std::uint64_t t = j.target;
      if (fn->contains(t)) {
        continue;  // jump inside the function
      }
      if (!code.is_code(t)) {
        continue;
      }

      const auto height = heights.height_at(*fn, j.site);
      if (!height) {
        if (options.use_cfi_heights && !skipped_logged) {
          outcome.skipped_incomplete.insert(entry);
          skipped_logged = true;
        }
        continue;  // no reliable stack height: conservative skip
      }

      bool is_tail_call = false;
      if (*height == 0) {
        if (refs.referenced_outside(*fn, t) &&
            analysis::meets_calling_convention(code, t)) {
          is_tail_call = true;
          if (state.starts.count(t) == 0) {
            outcome.tail_targets.insert(t);
            state.starts.insert(t);
          }
        }
      }

      // Merge check: the target is a detected FDE-carrying function and is
      // not referenced by anything except jumps inside this function.
      if (!is_tail_call && state.functions.count(t) != 0 && t != entry &&
          fde_starts.count(t) != 0 && !refs.referenced_outside(*fn, t)) {
        // Merge t's part into fn.
        if (!merged) {
          merged = std::make_shared<disasm::Function>(*fn);
          fn = merged.get();
        }
        const disasm::FunctionTable::Body part =
            state.functions.find(t)->second;
        state.functions.erase(t);
        state.starts.erase(t);
        outcome.merged[t] = entry;
        std::vector<std::uint64_t> body;
        body.reserve(fn->insn_addrs.size() + part->insn_addrs.size());
        std::set_union(fn->insn_addrs.begin(), fn->insn_addrs.end(),
                       part->insn_addrs.begin(), part->insn_addrs.end(),
                       std::back_inserter(body));
        merged->insn_addrs = std::move(body);
        merged->max_end = std::max(fn->max_end, part->max_end);
        merged->callees.insert(merged->callees.end(), part->callees.begin(),
                               part->callees.end());
        for (const disasm::FuncJump& pj : part->jumps) {
          merged->jumps.push_back(pj);
          pending.push_back(pj);
        }
        merged->tables.insert(merged->tables.end(), part->tables.begin(),
                              part->tables.end());
      }
    }
    if (merged) {
      state.functions.replace(std::move(merged));
    }
  }

  // Redirect merges that landed on an intermediate part to the final root.
  for (auto& [part, parent] : outcome.merged) {
    std::uint64_t root = parent;
    while (true) {
      const auto it = outcome.merged.find(root);
      if (it == outcome.merged.end()) {
        break;
      }
      root = it->second;
    }
    parent = root;
  }
  return outcome;
}

}  // namespace fetch::core
