// Tests of the workload generators: bounds, coverage, determinism, phase
// structure and the locality each kernel is supposed to exhibit.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "core/locality.hpp"
#include "workload/dgemm.hpp"
#include "workload/fft.hpp"
#include "workload/hpcc.hpp"
#include "workload/hpl.hpp"
#include "workload/ptrans.hpp"
#include "workload/random_access.hpp"
#include "workload/stream_triad.hpp"
#include "workload/synthetic.hpp"

namespace ampom::workload {
namespace {

using proc::Ref;

struct Drained {
  std::uint64_t count{0};
  std::set<mem::PageId> pages;
  sim::Time cpu{};
};

Drained drain(proc::ReferenceStream& stream, std::uint64_t limit = 50'000'000) {
  Drained d;
  while (d.count < limit) {
    const auto ref = stream.next();
    if (!ref) {
      break;
    }
    ++d.count;
    if (ref->kind == Ref::Kind::Memory) {
      d.pages.insert(ref->page);
    }
    d.cpu += ref->cpu;
  }
  return d;
}

// Pages needed to cover `fraction` of a stream's heap.
std::uint64_t heap_fraction(const WorkloadStream& stream, double fraction) {
  return static_cast<std::uint64_t>(
      static_cast<double>(stream.layout().pages(mem::Region::Heap)) * fraction);
}

// Feed a stream's first-touch sequence (deduplicated prefix of heap pages)
// into the locality analyzer and return the mean score, approximating the
// post-migration fault stream the kernel produces.
double fault_stream_score(proc::ReferenceStream& stream, std::size_t samples = 500) {
  core::LookbackWindow window{20};
  core::LocalityAnalyzer analyzer{4};
  std::unordered_set<mem::PageId> seen;
  double total = 0.0;
  std::size_t scored = 0;
  std::int64_t t = 0;
  while (scored < samples) {
    const auto ref = stream.next();
    if (!ref) {
      break;
    }
    if (ref->kind != Ref::Kind::Memory || !seen.insert(ref->page).second) {
      continue;  // only first touches fault
    }
    window.record(ref->page, sim::Time::from_us(++t), 1.0);
    if (window.full()) {
      total += analyzer.score(window);
      ++scored;
    }
  }
  return scored == 0 ? 0.0 : total / static_cast<double>(scored);
}

TEST(StreamTriad, TouchesAllThreeArrays) {
  StreamTriadConfig cfg;
  cfg.memory = 8 * sim::kMiB;
  cfg.iterations = 1;
  StreamTriad stream{cfg};
  const Drained d = drain(stream);
  EXPECT_GT(d.count, 0u);
  // Nearly the whole heap gets touched (3 equal arrays).
  const auto heap = stream.layout().pages(mem::Region::Heap);
  EXPECT_GT(d.pages.size(), heap * 9 / 10);
}

TEST(StreamTriad, RefCountMatchesPassStructure) {
  StreamTriadConfig cfg;
  cfg.memory = 4 * sim::kMiB;
  cfg.iterations = 2;
  StreamTriad stream{cfg};
  const Drained d = drain(stream);
  const std::uint64_t n = stream.layout().pages(mem::Region::Heap) / 3;
  // init(3n) + iters * (2n+2n+3n+3n) plus sparse aux touches.
  const std::uint64_t expected = 3 * n + cfg.iterations * 10 * n;
  EXPECT_GE(d.count, expected);
  EXPECT_LE(d.count, expected + expected / 100 + 8);
}

TEST(StreamTriad, HighSpatialLocalityFaultStream) {
  StreamTriadConfig cfg;
  cfg.memory = 16 * sim::kMiB;
  StreamTriad stream{cfg};
  EXPECT_GT(fault_stream_score(stream), 0.8);  // paper Fig. 4: high spatial
}

TEST(Dgemm, CoversWorkingSetOnly) {
  DgemmConfig cfg;
  cfg.memory = 32 * sim::kMiB;
  cfg.working_set = 8 * sim::kMiB;
  Dgemm stream{cfg};
  const Drained d = drain(stream);
  const mem::PageId heap_begin = stream.layout().begin(mem::Region::Heap);
  const std::uint64_t ws_pages = mem::pages_for_bytes(cfg.working_set);
  for (const mem::PageId p : d.pages) {
    if (stream.layout().region_of(p) == mem::Region::Heap) {
      EXPECT_LT(p - heap_begin, ws_pages);
    }
  }
  // §5.6: pages beyond the working set are never referenced.
  EXPECT_LT(d.pages.size(), ws_pages + 300);
}

TEST(Dgemm, WorkingSetLargerThanMemoryRejected) {
  DgemmConfig cfg;
  cfg.memory = 8 * sim::kMiB;
  cfg.working_set = 16 * sim::kMiB;
  EXPECT_THROW(Dgemm{cfg}, std::invalid_argument);
}

TEST(Dgemm, BlockRevisitsGiveTemporalLocality) {
  DgemmConfig cfg;
  cfg.memory = 16 * sim::kMiB;
  Dgemm stream{cfg};
  const Drained d = drain(stream);
  // Many more references than distinct pages: blocks are revisited.
  EXPECT_GT(d.count, d.pages.size() * 3);
}

TEST(Dgemm, GridIsSquare) {
  DgemmConfig cfg;
  cfg.memory = 64 * sim::kMiB;
  Dgemm stream{cfg};
  EXPECT_GE(stream.grid(), 2u);
}

TEST(Dgemm, HighSpatialLocalityFaultStream) {
  DgemmConfig cfg;
  cfg.memory = 16 * sim::kMiB;
  Dgemm stream{cfg};
  EXPECT_GT(fault_stream_score(stream), 0.8);
}

TEST(RandomAccess, UpdateCountMatchesConfig) {
  RandomAccessConfig cfg;
  cfg.memory = 8 * sim::kMiB;
  cfg.updates_per_page = 2.0;
  RandomAccess stream{cfg};
  const Drained d = drain(stream);
  const std::uint64_t table = stream.layout().pages(mem::Region::Heap);
  EXPECT_EQ(stream.total_updates(), static_cast<std::uint64_t>(2.0 * static_cast<double>(table)));
  // updates + bookkeeping + verification sweep.
  EXPECT_GT(d.count, stream.total_updates() + table);
}

TEST(RandomAccess, LowSpatialLocalityFaultStream) {
  RandomAccessConfig cfg;
  cfg.memory = 16 * sim::kMiB;
  RandomAccess stream{cfg};
  EXPECT_LT(fault_stream_score(stream), 0.4);  // paper Fig. 4: low spatial
}

TEST(RandomAccess, DeterministicForSameSeed) {
  RandomAccessConfig cfg;
  cfg.memory = 4 * sim::kMiB;
  cfg.updates_per_page = 1.0;
  RandomAccess a{cfg};
  RandomAccess b{cfg};
  for (int i = 0; i < 5000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (!ra) {
      break;
    }
    ASSERT_EQ(ra->page, rb->page);
  }
}

TEST(RandomAccess, DifferentSeedsDiffer) {
  RandomAccessConfig cfg;
  cfg.memory = 4 * sim::kMiB;
  RandomAccessConfig cfg2 = cfg;
  cfg2.seed ^= 0xDEAD;
  RandomAccess a{cfg};
  RandomAccess b{cfg2};
  int diff = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    if (ra && rb && ra->page != rb->page) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 500);
}

TEST(Fft, StagesBoundedByVectorSize) {
  FftConfig cfg;
  cfg.memory = 8 * sim::kMiB;
  cfg.max_stages = 30;
  Fft stream{cfg};
  EXPECT_LE(stream.stages(), 11u);  // log2(~2k pages)
  EXPECT_GT(stream.stages(), 5u);
}

TEST(Fft, TouchesWholeVectorRepeatedly) {
  FftConfig cfg;
  cfg.memory = 8 * sim::kMiB;
  Fft stream{cfg};
  const Drained d = drain(stream);
  const auto heap = stream.layout().pages(mem::Region::Heap);
  EXPECT_GT(d.pages.size(), heap * 9 / 10);
  EXPECT_GT(d.count, heap * (stream.stages() + 1));
}

TEST(Fft, ModerateSpatialLocalityFaultStream) {
  FftConfig cfg;
  cfg.memory = 16 * sim::kMiB;
  Fft stream{cfg};
  const double s = fault_stream_score(stream);
  EXPECT_GT(s, 0.5);  // init sweep is sequential
}

TEST(Hpl, TouchesWholeMatrixWithHeavyReuse) {
  HplConfig cfg;
  cfg.memory = 16 * sim::kMiB;
  Hpl stream{cfg};
  const Drained d = drain(stream);
  const std::uint64_t matrix = stream.grid() * stream.grid();
  EXPECT_GE(stream.grid(), 2u);
  // Every block touched; trailing updates revisit blocks O(grid) times.
  EXPECT_GT(d.pages.size(), heap_fraction(stream, 0.9));
  EXPECT_GT(d.count, d.pages.size() * 2);
  (void)matrix;
}

TEST(Hpl, HighSpatialLocalityFaultStream) {
  HplConfig cfg;
  cfg.memory = 16 * sim::kMiB;
  Hpl stream{cfg};
  EXPECT_GT(fault_stream_score(stream), 0.8);
}

TEST(Ptrans, TouchesBothMatricesOnce) {
  PtransConfig cfg;
  cfg.memory = 16 * sim::kMiB;
  Ptrans stream{cfg};
  const Drained d = drain(stream);
  EXPECT_GT(d.pages.size(), heap_fraction(stream, 0.9));
  // One transpose pass: roughly init (2m) + 3 touches per destination page.
  const std::uint64_t m = stream.layout().pages(mem::Region::Heap) / 2;
  EXPECT_LT(d.count, m * 6);
}

TEST(Ptrans, ModerateSpatialLocality) {
  PtransConfig cfg;
  cfg.memory = 16 * sim::kMiB;
  Ptrans stream{cfg};
  const double s = fault_stream_score(stream);
  EXPECT_GT(s, 0.4);  // sequential init + interleaved transpose streams
}

TEST(Hpcc, FactoryProducesEveryKernel) {
  for (const HpccKernel k : {HpccKernel::Dgemm, HpccKernel::Stream, HpccKernel::RandomAccess,
                             HpccKernel::Fft}) {
    const auto stream = make_hpcc_kernel(k, 65);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->memory_bytes(), 65 * sim::kMiB);
    EXPECT_STREQ(stream->name(), hpcc_kernel_name(k));
  }
}

TEST(Hpcc, Table1SizesMatchThePaper) {
  EXPECT_EQ(kDgemmCases.size(), 5u);
  EXPECT_EQ(kDgemmCases.front().memory_mib, 115u);
  EXPECT_EQ(kDgemmCases.back().memory_mib, 575u);
  EXPECT_EQ(kDgemmCases.back().problem_size, 17350u);
  EXPECT_EQ(kStreamCases[2].problem_size, 13450u);
  EXPECT_EQ(kRandomAccessCases.back().memory_mib, 513u);
  EXPECT_EQ(kFftCases.front().memory_mib, 65u);
}

TEST(Hpcc, SmallWorkingSetFactory) {
  const auto stream = make_small_ws_dgemm(64, 16);
  EXPECT_EQ(stream->memory_bytes(), 64 * sim::kMiB);
}

TEST(Synthetic, SequentialCoversHeapPerPass) {
  SequentialStream stream{4 * sim::kMiB, 2, sim::Time::from_us(1)};
  const Drained d = drain(stream);
  const auto heap = stream.layout().pages(mem::Region::Heap);
  EXPECT_GE(d.count, heap * 2);
  EXPECT_GE(d.pages.size(), heap);
}

TEST(Synthetic, RandomStaysInHeap) {
  UniformRandomStream stream{4 * sim::kMiB, 5000, sim::Time::from_us(1)};
  const Drained d = drain(stream);
  EXPECT_GE(d.count, 5000u);  // 5000 + a few aux touches
  EXPECT_LE(d.count, 5012u);
  const auto& layout = stream.layout();
  for (const mem::PageId p : d.pages) {
    const auto region = layout.region_of(p);
    EXPECT_TRUE(region == mem::Region::Heap || region == mem::Region::Code ||
                region == mem::Region::Stack);
  }
}

TEST(Synthetic, InterleavedProducesStridePatterns) {
  InterleavedStream stream{8 * sim::kMiB, 3, sim::Time::from_us(1)};
  core::LookbackWindow window{20};
  core::LocalityAnalyzer analyzer{4};
  std::int64_t t = 0;
  for (int i = 0; i < 60; ++i) {
    const auto ref = stream.next();
    ASSERT_TRUE(ref.has_value());
    window.record(ref->page, sim::Time::from_us(++t), 1.0);
  }
  const auto counts = analyzer.stride_counts(window);
  EXPECT_GT(counts[2], 10u);  // stride-3 links from 3 interleaved cursors
}

// Heap references a drained stream emitted.
std::uint64_t heap_refs(WorkloadStream& stream) {
  std::uint64_t n = 0;
  while (const auto ref = stream.next()) {
    if (stream.layout().region_of(ref->page) == mem::Region::Heap) {
      ++n;
    }
  }
  return n;
}

TEST(Synthetic, InterleavedEmitsEverySliceWithMoreCursorsThanTheBatch) {
  for (const std::uint64_t cursors : {std::uint64_t{32}, std::uint64_t{4096}}) {
    SCOPED_TRACE(cursors);
    InterleavedStream stream{64 * sim::kMiB, cursors, sim::Time::from_us(1)};
    const std::uint64_t slice = stream.layout().pages(mem::Region::Heap) / cursors;
    ASSERT_GT(slice, 0u);
    EXPECT_EQ(heap_refs(stream), slice * cursors);
  }
}

std::uint64_t heap_pages_of(sim::Bytes memory) {
  return mem::RegionLayout::for_total_bytes(memory).pages(mem::Region::Heap);
}

TEST(Synthetic, HotColdRejectsAnEmptyHotSet) {
  EXPECT_THROW((HotColdStream{sim::kMiB, 0, 100, 0.1, sim::Time::from_us(1)}),
               std::invalid_argument);
}

TEST(Synthetic, HotColdRejectsAHotSetLargerThanTheHeap) {
  const std::uint64_t heap = heap_pages_of(sim::kMiB);
  EXPECT_THROW((HotColdStream{sim::kMiB, heap + 1, 100, 0.0, sim::Time::from_us(1)}),
               std::invalid_argument);
}

TEST(Synthetic, HotColdRejectsColdExcursionsWithNoColdPages) {
  const std::uint64_t heap = heap_pages_of(sim::kMiB);
  EXPECT_THROW((HotColdStream{sim::kMiB, heap, 100, 0.1, sim::Time::from_us(1)}),
               std::invalid_argument);
  // With no cold excursions the whole heap may be hot.
  HotColdStream all_hot{sim::kMiB, heap, 100, 0.0, sim::Time::from_us(1)};
  EXPECT_EQ(heap_refs(all_hot), 100u);
}

TEST(Synthetic, HotColdRejectsAColdFractionOutsideTheUnitInterval) {
  for (const double cold : {-0.1, 1.5, std::nan("")}) {
    SCOPED_TRACE(cold);
    EXPECT_THROW((HotColdStream{sim::kMiB, 16, 100, cold, sim::Time::from_us(1)}),
                 std::invalid_argument);
  }
  HotColdStream all_cold{sim::kMiB, 16, 100, 1.0, sim::Time::from_us(1)};
  EXPECT_EQ(heap_refs(all_cold), 100u);
}

TEST(Synthetic, HotColdMostlyHitsHotSet) {
  HotColdStream stream{8 * sim::kMiB, /*hot=*/16, /*touches=*/10000, /*cold=*/0.1,
                       sim::Time::from_us(1)};
  const Drained d = drain(stream);
  EXPECT_GT(d.count, 10000u - 1);
  // Distinct pages: 16 hot + ~10% cold excursions, far below touch count.
  EXPECT_LT(d.pages.size(), 1600u);
}

TEST(Synthetic, InteractiveEmitsSyscalls) {
  InteractiveStream stream{4 * sim::kMiB, /*bursts=*/10, /*pages=*/20, /*syscalls=*/3,
                           sim::Time::from_us(5)};
  std::uint64_t syscalls = 0;
  std::uint64_t memory = 0;
  while (const auto ref = stream.next()) {
    (ref->kind == Ref::Kind::Syscall ? syscalls : memory) += 1;
  }
  EXPECT_EQ(syscalls, 30u);
  EXPECT_GE(memory, 200u);
}

TEST(Synthetic, AuxTouchesHitCodeAndStack) {
  SequentialStream stream{16 * sim::kMiB, 1, sim::Time::from_us(1)};
  const Drained d = drain(stream);
  bool saw_code = false;
  bool saw_stack = false;
  for (const mem::PageId p : d.pages) {
    const auto region = stream.layout().region_of(p);
    saw_code |= region == mem::Region::Code;
    saw_stack |= region == mem::Region::Stack;
  }
  EXPECT_TRUE(saw_code);
  EXPECT_TRUE(saw_stack);
}

// --- golden sequences ---------------------------------------------------------

// A drained stream's reference count and FNV-1a hash over every
// (page, cpu ns, kind): two streams with equal fingerprints emitted the
// same sequence.
struct Fingerprint {
  std::uint64_t count{0};
  std::uint64_t hash{0xCBF29CE484222325ULL};
};

Fingerprint fingerprint(proc::ReferenceStream& stream) {
  Fingerprint f;
  const auto mix = [&f](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      f.hash ^= (v >> (8 * byte)) & 0xFF;
      f.hash *= 0x100000001B3ULL;
    }
  };
  while (const auto ref = stream.next()) {
    ++f.count;
    mix(ref->page);
    mix(static_cast<std::uint64_t>(ref->cpu.ns()));
    mix(static_cast<std::uint64_t>(ref->kind));
  }
  return f;
}

struct Golden {
  const char* name;
  std::function<std::unique_ptr<proc::ReferenceStream>()> make;
  Fingerprint expected;
};

// Pinned on the generators as they were when each refilled 2,048 references
// at a time: the sequences must not depend on the refill batch, so a change
// of buffering may never move one of these numbers.
TEST(Golden, EveryGeneratorEmitsItsPinnedSequence) {
  const sim::Time us = sim::Time::from_us(1);
  const std::vector<Golden> cases = {
      {"sequential", [us] { return std::make_unique<SequentialStream>(16 * sim::kMiB, 2, us); },
       {7784, 0x568E35364F739EEFULL}},
      {"random",
       [us] { return std::make_unique<UniformRandomStream>(16 * sim::kMiB, 9000, us); },
       {9009, 0xCF45B2932D99F114ULL}},
      {"interleaved",
       [us] { return std::make_unique<InterleavedStream>(16 * sim::kMiB, 3, us); },
       {3892, 0x9DFA5E18B54B0AF7ULL}},
      {"hotcold",
       [us] {
         return std::make_unique<HotColdStream>(16 * sim::kMiB, 64, 9000, 0.1, us);
       },
       {9009, 0xDE3B1D657B4801B2ULL}},
      {"interactive",
       [us] { return std::make_unique<InteractiveStream>(4 * sim::kMiB, 40, 90, 3, us); },
       {3724, 0x0067646FEEDF06DFULL}},
      {"dgemm", [] { return make_hpcc_kernel(HpccKernel::Dgemm, 16, 7); }, {12974, 0xB25FA53C36E296E9ULL}},
      {"stream", [] { return make_hpcc_kernel(HpccKernel::Stream, 16, 7); }, {55789, 0x5521A148F10E8081ULL}},
      {"random_access", [] { return make_hpcc_kernel(HpccKernel::RandomAccess, 16, 7); },
       {45410, 0x02ECFAA8ADA750BFULL}},
      {"fft", [] { return make_hpcc_kernel(HpccKernel::Fft, 16, 7); }, {66202, 0x5B079BD66600EEFBULL}},
      {"small_ws_dgemm", [] { return make_small_ws_dgemm(32, 12); }, {8201, 0x20B4525A7F502CE4ULL}},
      {"hpl",
       [] {
         HplConfig cfg;
         cfg.memory = 16 * sim::kMiB;
         return std::make_unique<Hpl>(cfg);
       },
       {24002, 0x7327F5DA1B385CB3ULL}},
      {"ptrans",
       [] {
         PtransConfig cfg;
         cfg.memory = 16 * sim::kMiB;
         return std::make_unique<Ptrans>(cfg);
       },
       {9636, 0x47CC081EC9F495AAULL}},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.name);
    const auto stream = g.make();
    const Fingerprint f = fingerprint(*stream);
    EXPECT_EQ(f.count, g.expected.count);
    EXPECT_EQ(f.hash, g.expected.hash);
  }
}

}  // namespace
}  // namespace ampom::workload
