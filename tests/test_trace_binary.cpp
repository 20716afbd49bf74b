// The binary trace format (trace/trace_binary.hpp) pinned against the
// text format and the in-memory Trace: the record's bytes in every
// carrier (file, wire, snapshot), byte-exact round-trips on the
// exhaustive small universe and on random / Cilk / layered executions,
// precise rejection offsets for every malformed-image class, format
// auto-detection, and the scalar-vs-SIMD differential suites the
// dispatch policy (util/simd.hpp) promises are bit-identical.
#include "trace/trace_binary.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "analyze/race_oracle.hpp"
#include "dag/generators.hpp"
#include "enumerate/universe.hpp"
#include "exec/sc_memory.hpp"
#include "exec/weak_memory.hpp"
#include "exec/workload.hpp"
#include "proc/random_program.hpp"
#include "serve/protocol.hpp"
#include "trace/large_check.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

/// Serialize through the streamed binary writer into one image string.
std::string image_of(const Trace& trace) {
  std::ostringstream out(std::ios::binary);
  write_trace_binary(trace, out);
  return out.str();
}

/// Full-record equality: both formats preserve every field.
void expect_events_equal(const Trace& got, const Trace& want) {
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < got.events.size(); ++i)
    EXPECT_TRUE(got.events[i] == want.events[i]) << "event " << i;
}

void expect_round_trips(const Trace& trace, const Computation& c) {
  const std::string image = image_of(trace);
  ASSERT_EQ(image.size(), kTraceBinaryHeaderBytes +
                              trace.events.size() * kTraceBinaryEventBytes);
  const Trace back = read_trace_binary(image.data(), image.size(), c);
  expect_events_equal(back, trace);
  // One byte off alignment the reader decodes field by field instead of
  // copying the records as they lie; the result is the same.
  const std::string shifted = " " + image;
  expect_events_equal(read_trace_binary(shifted.data() + 1, image.size(), c),
                      trace);

  // The text twin must decode to the same trace.
  std::ostringstream text;
  write_trace(trace, text);
  std::istringstream in(text.str());
  expect_events_equal(read_trace(in, c), trace);
}

TEST(TraceBinary, RoundTripsExhaustiveSmallUniverse) {
  // Every computation of the bounded universe, each executed serially:
  // the round-trip must be exact on all of them.
  UniverseSpec spec;
  spec.max_nodes = 4;
  spec.nlocations = 2;
  std::size_t visited = 0;
  for_each_computation(spec, [&](const Computation& c) {
    ScMemory mem;
    const Trace trace = run_serial(c, mem).trace;
    expect_round_trips(trace, c);
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, computation_count(spec));
}

TEST(TraceBinary, RoundTripsScrambledObservations) {
  // The format does not require trace-consistent observations — any
  // in-range node id or ⊥ must survive. Scramble and round-trip.
  Rng rng(2026);
  const Computation c = workload::contended_counter(12);
  ScMemory mem;
  std::vector<BinaryTraceEvent> events =
      run_serial(c, mem).trace.events.to_vector();
  for (BinaryTraceEvent& e : events) {
    if (rng.chance(0.3))
      e.observed = kBottom;
    else if (rng.chance(0.5))
      e.observed = static_cast<NodeId>(rng.below(c.node_count()));
    e.time = rng.below(1u << 30);
    e.proc = static_cast<ProcId>(rng.below(64));
  }
  const Trace trace(std::move(events));
  const std::string image = image_of(trace);
  expect_events_equal(read_trace_binary(image.data(), image.size(), c), trace);
}

TEST(TraceBinary, RoundTripsLargerExecutionFamilies) {
  Rng rng(401);
  std::vector<Computation> cs;
  // random general dag / random Cilk (series-parallel) / wide layered.
  cs.push_back(workload::random_ops(gen::random_dag(600, 0.02, rng), 6, 0.4,
                                    0.4, rng));
  {
    proc::RandomCilkOptions opt;
    opt.target_ops = 20000;
    opt.nlocations = 8;
    cs.push_back(proc::random_cilk(opt, rng));
  }
  cs.push_back(workload::random_ops(
      gen::layered({300, 400, 400, 300}, 0.02, rng), 10, 0.45, 0.45, rng));
  for (const Computation& c : cs) {
    WeakMemory mem(7);
    const Schedule s = greedy_schedule(c, 4);
    expect_round_trips(run_execution(c, s, mem).trace, c);
  }
}

TEST(TraceBinary, ZeroCopyViewMatchesPortableReader) {
  const Computation c = workload::stencil(6, 5);
  ScMemory mem;
  const Trace trace = run_serial(c, mem).trace;
  const std::string image = image_of(trace);
  const BinaryTraceView view =
      validate_trace_binary(image.data(), image.size(), c);
  ASSERT_EQ(view.count, trace.events.size());
  for (std::size_t i = 0; i < view.count; ++i) {
    EXPECT_EQ(view.events[i].seq, trace.events[i].seq);
    EXPECT_EQ(view.events[i].node, trace.events[i].node);
    EXPECT_EQ(view.events[i].reserved, 0u);
  }
  expect_events_equal(trace_from_view(view, c), trace);
}

TEST(TraceBinary, EmptyTraceRoundTrips) {
  const Trace empty;
  const std::string image = image_of(empty);
  EXPECT_EQ(image.size(), kTraceBinaryHeaderBytes);
  const Trace back = read_trace_binary(image.data(), image.size(), Computation());
  EXPECT_TRUE(back.events.empty());
}

/// Bytes from a hex literal; spaces only group digits for the reader.
std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i < hex.size(); i += hex[i] == ' ' ? 1 : 2) {
    if (hex[i] != ' ')
      out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr,
                                                16)));
  }
  return out;
}

TEST(TraceBinary, RecordBytesArePinnedInEveryCarrier) {
  // One fixed trace over W(5) -> R(5) -> R(5): a ⊥ observation, seq and
  // time above 2^32, and procs whose four bytes all differ, so a field
  // swap that still round-trips changes the bytes.
  ComputationBuilder b;
  b.write(5);
  b.read(5, {0});
  b.read(5, {1});
  const Computation c = std::move(b).build();
  const Trace trace({{0x100000001, 0x200000001, 0x04030201, 0, kBottom},
                     {0x100000002, 0x200000002, 0x04030201, 1, 0},
                     {0x100000003, 0x200000003, 0x08070605, 2, 0}});
  const std::string records = from_hex(
      // Per record: seq, time (u64); proc, node, observed, reserved (u32).
      "0100000001000000 0100000002000000 01020304 00000000 ffffffff 00000000 "
      "0200000001000000 0200000002000000 01020304 01000000 00000000 00000000 "
      "0300000001000000 0300000002000000 05060708 02000000 00000000 00000000");

  // The shared codec: what a kEvents payload carries.
  std::string encoded(records.size(), '\0');
  encode_trace_records(trace.events.data(), trace.events.size(),
                       reinterpret_cast<unsigned char*>(encoded.data()));
  EXPECT_EQ(encoded, records);
  std::vector<BinaryTraceEvent> decoded(trace.events.size());
  decode_trace_records(reinterpret_cast<const unsigned char*>(records.data()),
                       decoded.size(), decoded.data());
  EXPECT_TRUE(decoded == trace.events);

  // The .tbin image: header, then the same records.
  const std::string image = image_of(trace);
  EXPECT_EQ(image, from_hex("43434d4d 54524330 01000000 00000000 03000000 "
                            "00000000 00000000 00000000") +
                       records);
  expect_events_equal(read_trace_binary(image.data(), image.size(), c),
                      trace);

  // A snapshot blob ends with the event count and the same records.
  SessionOptions sopt;
  sopt.retain_events = true;
  CheckSession session(c, sopt);
  ASSERT_TRUE(session.feed(trace.events.data(), trace.events.size()))
      << session.error();
  const std::string blob = serve::encode_snapshot(session);
  const std::string section = from_hex("03000000 00000000") + records;
  ASSERT_GE(blob.size(), section.size());
  EXPECT_EQ(blob.substr(blob.size() - section.size()), section);
  const serve::SnapshotImage img = serve::decode_snapshot(
      reinterpret_cast<const unsigned char*>(blob.data()), blob.size());
  EXPECT_TRUE(img.events == trace.events);
}

/// Expect read_trace_binary to throw with exactly this byte offset, on
/// the image as given and one byte off alignment (the field-by-field
/// decode).
void expect_rejects_at(const std::string& image, const Computation& c,
                       std::size_t offset) {
  const std::string shifted = " " + image;
  for (const char* data : {image.data(), shifted.data() + 1}) {
    try {
      (void)read_trace_binary(data, image.size(), c);
      ADD_FAILURE() << "image accepted; expected rejection at offset "
                    << offset;
    } catch (const TraceReadError& e) {
      EXPECT_EQ(e.offset(), offset) << e.what();
    }
  }
}

TEST(TraceBinary, RejectsMalformedHeaders) {
  const Computation c = workload::reduction(3);
  ScMemory mem;
  const Trace trace = run_serial(c, mem).trace;
  const std::string good = image_of(trace);

  // Truncated header: the offset is the point the file ended.
  expect_rejects_at(std::string(), c, 0);
  expect_rejects_at(good.substr(0, 10), c, 10);
  expect_rejects_at(good.substr(0, 31), c, 31);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_rejects_at(bad_magic, c, 0);

  std::string bad_version = good;
  bad_version[8] = 9;  // version 9 > kTraceBinaryVersion
  expect_rejects_at(bad_version, c, 8);

  std::string bad_flags = good;
  bad_flags[12] = 1;
  expect_rejects_at(bad_flags, c, 12);

  // event_count disagreeing with the file size, in both directions.
  std::string bad_count = good;
  bad_count[16] = static_cast<char>(bad_count[16] + 1);
  expect_rejects_at(bad_count, c, 16);
  expect_rejects_at(good.substr(0, good.size() - 5), c, 16);  // torn record
  expect_rejects_at(good + std::string(8, '\0'), c, 16);      // trailing junk

  std::string bad_reserved = good;
  bad_reserved[24] = 1;
  expect_rejects_at(bad_reserved, c, 24);
}

TEST(TraceBinary, RejectsMalformedRecordsWithExactOffsets) {
  const Computation c = workload::reduction(3);  // well under 2^32 nodes
  ScMemory mem;
  const Trace trace = run_serial(c, mem).trace;
  ASSERT_GE(trace.events.size(), 2u);
  const std::string good = image_of(trace);

  const auto record = [](std::size_t i) {
    return kTraceBinaryHeaderBytes + i * kTraceBinaryEventBytes;
  };
  const auto poke32 = [](std::string image, std::size_t at,
                         std::uint32_t v) {
    std::memcpy(image.data() + at, &v, sizeof v);
    return image;
  };

  // Out-of-range node id, in the first and in a later record.
  expect_rejects_at(poke32(good, record(0) + 20, 0xDEAD), c, record(0) + 20);
  expect_rejects_at(poke32(good, record(1) + 20, 0xDEAD), c, record(1) + 20);
  // Out-of-range observation — but 0xFFFFFFFF (⊥) stays legal.
  expect_rejects_at(poke32(good, record(0) + 24, 0xBEEF), c, record(0) + 24);
  const std::string bot = poke32(good, record(0) + 24, 0xFFFFFFFFu);
  EXPECT_EQ(read_trace_binary(bot.data(), bot.size(), c).events[0].observed,
            kBottom);
  // Nonzero per-record reserved field.
  expect_rejects_at(poke32(good, record(1) + 28, 1), c, record(1) + 28);
}

TEST(TraceBinary, DetectsFormatFromMagic) {
  const std::string binary = image_of(Trace());
  EXPECT_EQ(detect_trace_format(binary.data(), binary.size()),
            TraceFormat::kBinary);
  const std::string text = "0 0 0 _\n";
  EXPECT_EQ(detect_trace_format(text.data(), text.size()), TraceFormat::kText);
  // Too short to hold the magic — even a magic prefix — reads as text.
  EXPECT_EQ(detect_trace_format("CCMMTRC", 7), TraceFormat::kText);
  EXPECT_EQ(detect_trace_format(nullptr, 0), TraceFormat::kText);
}

TEST(TraceBinary, LoadTraceAutoDetectsFilesAndMapsThem) {
  const Computation c = workload::contended_counter(5);
  ScMemory mem;
  const Trace trace = run_serial(c, mem).trace;

  const std::string dir = ::testing::TempDir();
  const std::string bin_path = dir + "ccmm_trace_binary_test.tbin";
  const std::string txt_path = dir + "ccmm_trace_binary_test.trace";
  {
    std::ofstream out(bin_path, std::ios::binary);
    write_trace_binary(trace, out);
  }
  {
    std::ofstream out(txt_path);
    write_trace(trace, out);
  }
  const MappedTraceFile file(bin_path);
  const MappedTraceFile text(txt_path);
  EXPECT_EQ(detect_trace_format(file.data(), file.size()),
            TraceFormat::kBinary);
  EXPECT_EQ(detect_trace_format(text.data(), text.size()), TraceFormat::kText);

  expect_events_equal(load_trace(bin_path, c), trace);
  expect_events_equal(load_trace(txt_path, c), trace);

  // The mmap image is byte-for-byte the writer's output.
  const std::string image = image_of(trace);
  ASSERT_EQ(file.size(), image.size());
  EXPECT_EQ(std::memcmp(file.data(), image.data(), image.size()), 0);
  expect_events_equal(read_trace_binary(file.data(), file.size(), c), trace);

  // A loaded binary trace borrows its file's mapping and keeps it alive:
  // it reads the writer's records after the file is removed, a copy
  // reads them after the original is gone, and a moved-from Trace holds
  // no records.
  std::optional<Trace> loaded = load_trace(bin_path, c);
  ASSERT_EQ(std::remove(bin_path.c_str()), 0);
  expect_events_equal(*loaded, trace);
  const Trace copy = *loaded;
  loaded.reset();
  expect_events_equal(copy, trace);
  Trace from = copy;
  const Trace to = std::move(from);
  // NOLINTBEGIN(bugprone-use-after-move)
  EXPECT_TRUE(from.events.empty());
  EXPECT_EQ(from.events.data(), nullptr);
  // NOLINTEND(bugprone-use-after-move)
  expect_events_equal(to, trace);

  EXPECT_THROW((void)load_trace(dir + "ccmm_no_such_trace.tbin", c),
               std::runtime_error);
}

#if defined(__unix__) || defined(__APPLE__)

/// Write `image` into a pipe (the whole blob fits the kernel buffer
/// for these sizes, so no writer thread is needed) and hand back the
/// read end.
int pipe_with(const std::string& image) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  std::size_t at = 0;
  while (at < image.size()) {
    const ssize_t k =
        ::write(fds[1], image.data() + at, image.size() - at);
    if (k <= 0) {
      ADD_FAILURE() << "pipe write failed";
      break;
    }
    at += static_cast<std::size_t>(k);
  }
  ::close(fds[1]);
  return fds[0];
}

TEST(TraceBinary, NonSeekableInputsStreamWithoutTempFiles) {
  // Pipes cannot seek or mmap: the read-to-EOF fallback must hand the
  // checker the identical image, for both formats and through both the
  // descriptor constructor and load_trace("-")-style consumers.
  const Computation c = workload::contended_counter(5);
  ScMemory mem;
  const Trace trace = run_serial(c, mem).trace;
  const std::string image = image_of(trace);

  {
    const int rd = pipe_with(image);
    const MappedTraceFile f(rd, "<pipe>");
    ::close(rd);
    EXPECT_FALSE(f.mapped());
    ASSERT_EQ(f.size(), image.size());
    EXPECT_EQ(std::memcmp(f.data(), image.data(), image.size()), 0);
    expect_events_equal(read_trace_binary(f.data(), f.size(), c), trace);
    // The drained image one byte off alignment decodes to the same trace.
    std::vector<unsigned char> shifted(f.size() + 1);
    std::memcpy(shifted.data() + 1, f.data(), f.size());
    expect_events_equal(read_trace_binary(shifted.data() + 1, f.size(), c),
                        trace);
  }
  {
    // Text down a pipe: the single-open load path parses straight from
    // the drained buffer.
    std::ostringstream txt;
    write_trace(trace, txt);
    const int rd = pipe_with(txt.str());
    const MappedTraceFile f(rd, "<pipe>");
    ::close(rd);
    EXPECT_EQ(detect_trace_format(f.data(), f.size()), TraceFormat::kText);
  }
  {
    // A FIFO by path: load_trace must open it exactly once (the sniff
    // used to cost the first 8 bytes).
    const std::string fifo = ::testing::TempDir() + "ccmm_trace_fifo";
    ::unlink(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    std::thread writer([&] {
      std::ofstream out(fifo, std::ios::binary);
      out.write(image.data(), static_cast<std::streamsize>(image.size()));
    });
    // The trace borrows the drained buffer: it outlives the FIFO.
    const Trace loaded = load_trace(fifo, c);
    writer.join();
    ::unlink(fifo.c_str());
    expect_events_equal(loaded, trace);
  }
}

TEST(TraceBinary, TruncatedPipeImagesReportExactOffsets) {
  const Computation c = workload::contended_counter(4);
  ScMemory mem;
  const Trace trace = run_serial(c, mem).trace;
  const std::string image = image_of(trace);

  // Cut inside the header: the 32-byte header check fires at the
  // truncated size.
  for (const std::size_t cut : {std::size_t{7}, std::size_t{31}}) {
    const int rd = pipe_with(image.substr(0, cut));
    const MappedTraceFile f(rd, "<pipe>");
    ::close(rd);
    try {
      (void)read_trace_binary(f.data(), f.size(), c);
      FAIL() << "truncated header must throw";
    } catch (const TraceReadError& e) {
      EXPECT_EQ(e.offset(), cut);
    }
  }
  // Cut inside a record: event_count disagrees with the drained size;
  // the offset pins the count field at byte 16.
  for (const std::size_t drop : {std::size_t{1}, std::size_t{17}}) {
    const int rd = pipe_with(image.substr(0, image.size() - drop));
    const MappedTraceFile f(rd, "<pipe>");
    ::close(rd);
    try {
      (void)read_trace_binary(f.data(), f.size(), c);
      FAIL() << "truncated record must throw";
    } catch (const TraceReadError& e) {
      EXPECT_EQ(e.offset(), 16u);
    }
  }
}

#endif  // POSIX

// ---------------------------------------------------------------------
// Scalar-vs-SIMD differential suites. The kernels (dag/sweep.hpp) are
// required to be bit-identical across dispatch levels; these tests pin
// the whole observable surface — verdicts, witnesses, race lists — with
// the level forced per call. The *Parallel* names put them in the TSan
// job's filter, where the sharded pipelines run threaded.
// ---------------------------------------------------------------------

std::vector<std::pair<Computation, ObserverFunction>> differential_inputs() {
  std::vector<std::pair<Computation, ObserverFunction>> out;
  Rng rng(733);
  std::vector<Computation> cs;
  // > 256 writers on a hot location: exercises multi-chunk mask sweeps
  // (two 256-anchor batches) in both engines.
  cs.push_back(workload::random_ops(gen::layered({200, 250, 200}, 0.02, rng),
                                    1, 0.55, 0.4, rng));
  // Many locations, moderate writers: exercises sharding + direct path.
  cs.push_back(workload::random_ops(gen::layered({60, 80, 80, 60}, 0.05, rng),
                                    16, 0.45, 0.45, rng));
  cs.push_back(workload::random_ops(gen::random_dag(220, 0.04, rng), 5, 0.4,
                                    0.4, rng));
  {
    proc::RandomCilkOptions opt;
    opt.target_ops = 800;
    opt.nlocations = 6;
    cs.push_back(proc::random_cilk(opt, rng));
  }
  for (Computation& c : cs) {
    WeakMemory mem(11);
    const Schedule s = greedy_schedule(c, 4);
    ObserverFunction phi = run_execution(c, s, mem).phi;
    out.emplace_back(std::move(c), std::move(phi));
  }
  return out;
}

TEST(DataPlaneParallel, LargeCheckScalarMatchesDispatched) {
  for (const auto& [c, phi] : differential_inputs()) {
    for (const bool parallel : {false, true}) {
      LargeCheckOptions scalar;
      scalar.models = kLargeCheckAll;
      scalar.parallel = parallel;
      scalar.simd = SimdLevel::kScalar;
      LargeCheckOptions dispatched = scalar;
      dispatched.simd.reset();  // whatever the CPU offers

      const LargeCheckReport a = large_check(c, phi, scalar);
      const LargeCheckReport b = large_check(c, phi, dispatched);
      EXPECT_EQ(a.simd, "scalar");
      ASSERT_EQ(a.valid_observer, b.valid_observer) << b.simd;
      EXPECT_EQ(a.checked, b.checked);
      EXPECT_EQ(a.satisfied, b.satisfied) << b.simd;
      EXPECT_EQ(a.detail, b.detail) << b.simd;
      ASSERT_EQ(a.locations.size(), b.locations.size());
      for (std::size_t i = 0; i < a.locations.size(); ++i) {
        EXPECT_EQ(a.locations[i].loc, b.locations[i].loc);
        EXPECT_EQ(a.locations[i].valid, b.locations[i].valid);
        EXPECT_EQ(a.locations[i].violated, b.locations[i].violated);
        EXPECT_EQ(a.locations[i].writers, b.locations[i].writers);
        EXPECT_EQ(a.locations[i].detail, b.locations[i].detail) << b.simd;
      }
    }
  }
}

TEST(DataPlaneParallel, RaceScanScalarMatchesDispatched) {
  using analyze::RaceScanOptions;
  for (const auto& [c, phi] : differential_inputs()) {
    (void)phi;  // race scans look only at the computation
    for (const bool parallel : {false, true}) {
      RaceScanOptions scalar;
      scalar.direct_pair_threshold = 0;  // force the mask-sweep path
      scalar.parallel = parallel;
      scalar.simd = SimdLevel::kScalar;
      RaceScanOptions dispatched = scalar;
      dispatched.simd.reset();

      analyze::RaceScanStats sa, sb;
      const std::vector<Race> a = analyze::find_races_oracle(c, scalar, &sa);
      const std::vector<Race> b =
          analyze::find_races_oracle(c, dispatched, &sb);
      EXPECT_EQ(sa.simd, "scalar");
      ASSERT_EQ(a.size(), b.size()) << sb.simd;
      for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << sb.simd << " race " << i;
    }
  }
}

}  // namespace
}  // namespace ccmm
