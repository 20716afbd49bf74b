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
//
// A computation also has a binary image: the same ops, edges and
// strands as fixed-width little-endian records, which a reader
// validates in O(n + m) without tokenizing. ccmm_serve's kOpen frames
// and snapshots carry it, and `ccmm_check --emit` writes it as .cimg.
// Layout (all fields little-endian):
//
//   offset    size  field
//   ------    ----  ------------------------------------------------
//        0       8  magic "CCMMCMP0"
//        8       4  version (currently 1)
//       12       4  reserved (must be 0)
//       16       8  node_count n     (≤ 2^28)
//       24       8  edge_count m     (≤ kMaxDagEdges = 2^32 − 1)
//       32       8  strand_count s   (≤ 2^32; 0 = no strand lines)
//       40     8·n  ops, node 0 first:
//                     +0 u8 kind (0 N, 1 R, 2 W)   +1 u8[3] reserved (0)
//                     +4 u32 location (≤ 2^30; 0 for N)
//   40+8n      8·m  edges (+0 u32 from, +4 u32 to) in succ-row order:
//                   from never decreases, and a row lists its targets as
//                   Dag::succ does. Distinct, no self-loops, acyclic.
//   …+8m       4·s  strand lengths: u32 event count per strand, strand 0
//                   (the root) first
//   …+4s       8·k  the strands' events, strand by strand (k = the sum of
//                   the lengths):
//                     +0 u8 kind (0 n, 1 s, 2 y, 3 a)   +1 u8[3] reserved (0)
//                     +4 u32 node (n, y; 0xFFFFFFFF = y_) or strand (s, a)
//
// Nothing follows the last event. Images are canonical: whatever the
// decoder accepts, write_computation_image writes back byte for byte,
// and the image of a computation the text reader returned decodes to
// the same computation and strands, so text → image → text reproduces
// the text writer's bytes. The decoder makes every check the text
// reader makes and rejects anything the writer would not write; errors
// are ImageReadError with the byte offset of the first bad field, and
// the counts are checked against the bytes before anything is
// allocated from them.
//
// Both read_computation overloads accept either format: an input whose
// first 8 bytes are the image magic is decoded as an image (no text
// can start with it: a text's first token is 'computation'), anything
// else is parsed as text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/observer.hpp"

namespace ccmm::io {

/// Render / parse a computation. Parsing throws std::runtime_error with
/// a line number on malformed text, ImageReadError (a runtime_error)
/// with a byte offset on a malformed image. Text is parsed in place,
/// numbers as they are scanned, with no per-line allocation: the view
/// overload parses the view itself (copying only an unterminated last
/// line) in 1 MiB windows, the stream overload reads 1 MiB blocks, so
/// memory beyond the result is one block, or the longest line rounded
/// up to a power of two.
///
/// Threads: once an input holds a block, each block's whole lines after
/// 'nodes' are parsed in chunks on global_pool() (a call from one of
/// its workers runs them inline, a one-worker pool reads serially). A
/// count pass gives every chunk its slots and a write pass puts ops,
/// edge targets and strand events straight into the result's arrays,
/// so chunks add no memory; the edge and event arrays reserve 1.5
/// entries per node when a round first grows them. Any line a chunk
/// does not take goes back to the serial loop, so results, messages,
/// line numbers and stream positions are a serial read's. Edges in row
/// order, as write_computation writes them, become the dag's succ rows
/// as they are. A seekable stream is left just past the 'end' line; any
/// stream is left just past an image.
[[nodiscard]] std::string write_computation(const Computation& c);
[[nodiscard]] Computation read_computation(std::istream& in);
[[nodiscard]] Computation read_computation(std::string_view text);

inline constexpr char kComputationImageMagic[8] = {'C', 'C', 'M', 'M',
                                                   'C', 'M', 'P', '0'};
inline constexpr std::uint32_t kComputationImageVersion = 1;
inline constexpr std::size_t kComputationImageHeaderBytes = 40;

/// A malformed computation image; offset() is the byte position of the
/// first field that failed validation.
class ImageReadError : public std::runtime_error {
 public:
  ImageReadError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_ = 0;
};

/// The image of `c`, laid out as in the table above. Like the text
/// writer it carries the strands only when the SP structure describes
/// c's nodes.
[[nodiscard]] std::string write_computation_image(const Computation& c);
/// True iff `bytes` starts with the image magic.
[[nodiscard]] bool is_computation_image(std::string_view bytes) noexcept;
/// Decode a whole image; bytes past its last event are an error.
[[nodiscard]] Computation read_computation_image(std::string_view image);

// The stream half of read_computation's detection, shared by
// text.cpp and image.cpp. Not an interface of its own.
namespace detail {

/// Decode the rest of an image whose 8-byte magic was just read from
/// `in`. Reads exactly the image's bytes, so `in` is left just past it,
/// in chunks no larger than what has arrived so far: memory follows
/// the input, not the counts its header claims.
[[nodiscard]] Computation read_computation_image_rest(std::streambuf& in);

}  // namespace detail

/// Render / parse an observer function (node_count taken from the
/// paired computation when parsing).
[[nodiscard]] std::string write_observer(const ObserverFunction& phi);
[[nodiscard]] ObserverFunction read_observer(std::istream& in,
                                             std::size_t node_count);

/// A pair file is a computation block, text or image, followed by an
/// optional observer block.
struct TextPair {
  Computation c;
  std::optional<ObserverFunction> phi;
};
[[nodiscard]] std::string write_pair(const Computation& c,
                                     const ObserverFunction& phi);
[[nodiscard]] TextPair read_pair(std::istream& in);

}  // namespace ccmm::io
