// ccmm/trace/postmortem.hpp
//
// Post-mortem analysis: the paper's motivating use of computations — "to
// verify whether a system meets a specification by checking its behavior
// after it has finished executing." Given an execution's observer
// function (or only its reads, which is all real hardware reveals),
// decide membership in a memory model.
#pragma once

#include <optional>

#include "core/memory_model.hpp"
#include "trace/trace.hpp"

namespace ccmm {

/// Verdict of a post-mortem check.
struct PostmortemReport {
  bool valid_observer = false;  // Definition 2 conditions hold
  bool in_model = false;
  std::string detail;
};

/// Check a fully recorded execution against a model.
[[nodiscard]] PostmortemReport verify_execution(const Computation& c,
                                                const ObserverFunction& phi,
                                                const MemoryModel& model);

/// The read-only projection of an observer function: entries for read
/// nodes at their own location, kBottom elsewhere. This is what a real
/// machine's execution (with unique write values) reveals.
[[nodiscard]] ObserverFunction reads_only_projection(const Computation& c,
                                                     const ObserverFunction&
                                                         phi);

/// Search for a completion of a partial (reads-only) observer function
/// that lies in `model`: free slots are every (written location, node)
/// pair not fixed by a read or a write. Exponential in the number of
/// free slots; `budget` caps the completions tried (nullopt on
/// exhaustion without an answer does NOT prove absence).
struct CompletionResult {
  std::optional<ObserverFunction> completion;
  bool exhausted = false;  // budget ran out before the search finished
  std::size_t tried = 0;
};
[[nodiscard]] CompletionResult find_model_completion(
    const Computation& c, const ObserverFunction& reads,
    const MemoryModel& model, std::size_t budget = 1u << 20);

}  // namespace ccmm
