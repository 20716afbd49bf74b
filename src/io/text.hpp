// ccmm/io/text.hpp
//
// A line-oriented text format for computations and observer functions,
// so instances can be stored in files, shipped in bug reports, and fed
// to the ccmm_check command-line tool. Grammar (one directive per line,
// '#' comments, blank lines ignored, tokens split on ASCII whitespace):
//
//   computation
//   nodes <n>
//   op <id> N            |  op <id> R <loc>  |  op <id> W <loc>
//   edge <from> <to>
//   strand <event>...    event: n<node> | s<strand> | y<node> | y_ | a<strand>
//   end
//
//   observer
//   phi <loc> <node> <observed-node | _>     (_ = ⊥)
//   end
//
// Unlisted ops default to N; unlisted phi entries default to ⊥. Node
// ids are below n; edges are not self-loops and must form a dag.
//
// Strand lines carry the computation's series-parallel parse, one
// strand per line in index order (strand 0 is the root): n<node> the
// strand executed node, s<strand> it spawned that strand, y<node> it
// synced at join node <node> (y_ when no join node was needed),
// a<strand> that strand continues it after a plain call. A strand
// index may name a strand whose line comes later; indices are checked
// once the whole block is read, and that error carries the 'end' line.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/observer.hpp"

namespace ccmm::io {

/// Render / parse a computation. Parsing throws std::runtime_error with
/// a line number on malformed input. Both readers run one scanner that
/// splits lines in place, without a per-line allocation: the text
/// overload parses the view directly, the stream overload reads 1 MiB
/// blocks, so memory beyond the result is one block plus the longest
/// line. A seekable stream is left just past the 'end' line.
[[nodiscard]] std::string write_computation(const Computation& c);
[[nodiscard]] Computation read_computation(std::istream& in);
[[nodiscard]] Computation read_computation(std::string_view text);

/// Render / parse an observer function (node_count taken from the
/// paired computation when parsing).
[[nodiscard]] std::string write_observer(const ObserverFunction& phi);
[[nodiscard]] ObserverFunction read_observer(std::istream& in,
                                             std::size_t node_count);

/// A pair file is a computation block followed by an optional observer
/// block.
struct TextPair {
  Computation c;
  std::optional<ObserverFunction> phi;
};
[[nodiscard]] std::string write_pair(const Computation& c,
                                     const ObserverFunction& phi);
[[nodiscard]] TextPair read_pair(std::istream& in);

}  // namespace ccmm::io
