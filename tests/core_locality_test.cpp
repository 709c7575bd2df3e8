// Tests of the spatial-locality score and outstanding-stream detection,
// anchored on the paper's own worked examples (§3.2 and §3.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "core/locality.hpp"
#include "simcore/rng.hpp"

namespace ampom::core {
namespace {

using sim::Time;

LookbackWindow make_window(const std::vector<mem::PageId>& pages, std::size_t capacity = 0) {
  LookbackWindow w{capacity == 0 ? std::max<std::size_t>(pages.size(), 2) : capacity};
  std::int64_t t = 0;
  for (const mem::PageId p : pages) {
    w.record(p, Time::from_us(++t), 1.0);
  }
  return w;
}

TEST(Locality, PaperExampleStride2Count) {
  // §3.2: {1,99,2,45,3,78,4} contains three stride-2 references and
  // stride_2 = 4 (pages 1, 2, 3, 4).
  const LookbackWindow w = make_window({1, 99, 2, 45, 3, 78, 4});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  EXPECT_EQ(counts[0], 0u);  // stride-1
  EXPECT_EQ(counts[1], 4u);  // stride-2
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 0u);
}

TEST(Locality, PaperExampleScoreQuarter) {
  // §3.2: {10,99,11,34,12,85} -> stride_2 = 3, S = 3/(6*2) = 0.25.
  const LookbackWindow w = make_window({10, 99, 11, 34, 12, 85});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.25);
}

TEST(Locality, PureSequentialScoresOne) {
  // §3.2: a process doing only sequential access has S = 1.
  const LookbackWindow w = make_window({1, 2, 3, 4, 5, 6, 7, 8});
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 1.0);
}

TEST(Locality, ScatteredPagesScoreZero) {
  const LookbackWindow w = make_window({100, 7, 912, 55, 3000, 42});
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.0);
}

TEST(Locality, ScoreAlwaysWithinUnitInterval) {
  // Interleaved ascending runs can mark positions at several strides; the
  // score is clamped to 1.
  const LookbackWindow w = make_window({1, 2, 3, 4, 1, 2, 3, 4});
  LocalityAnalyzer analyzer{4};
  EXPECT_LE(analyzer.score(w), 1.0);
  EXPECT_GT(analyzer.score(w), 0.0);
}

TEST(Locality, StrideBeyondDmaxIgnored) {
  // Page+1 appears 5 positions later; with dmax = 4 it is invisible.
  const LookbackWindow w = make_window({10, 50, 51, 52, 53, 11});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  std::uint64_t stride10 = counts[0];
  EXPECT_EQ(stride10, 4u);  // the 50..53 run
  // Page 10 -> 11 at distance 5: not counted anywhere.
  double expected = 4.0 / (6.0 * 1.0);
  EXPECT_DOUBLE_EQ(analyzer.score(w), expected);
}

TEST(Locality, MinimumDistanceWins) {
  // Page 8 appears twice after 7; the stride is the minimum distance (1).
  const LookbackWindow w = make_window({7, 8, 99, 8});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  EXPECT_EQ(counts[0], 2u);  // {7,8} at stride 1
  EXPECT_EQ(counts[2], 0u);  // the second 8 is not the chosen link
}

TEST(Locality, InterleavedStreamsScoreByStride) {
  // Two interleaved sequential streams: a,b,a+1,b+1,... -> stride-2 links.
  const LookbackWindow w = make_window({100, 500, 101, 501, 102, 502});
  LocalityAnalyzer analyzer{4};
  const auto counts = analyzer.stride_counts(w);
  EXPECT_EQ(counts[1], 6u);  // every position participates
  EXPECT_DOUBLE_EQ(analyzer.score(w), 6.0 / (6.0 * 2.0));
}

TEST(Locality, PaperOutstandingStreamExample) {
  // §3.4: l = 10, pages {13,27,7,8,14,8,3,15,4,5}: outstanding streams are
  // {14,15} (stride-3, pivot 16), {3,4} (stride-2, pivot 5), {4,5}
  // (stride-1, pivot 6); {7,8} is not outstanding any more.
  const LookbackWindow w = make_window({13, 27, 7, 8, 14, 8, 3, 15, 4, 5});
  LocalityAnalyzer analyzer{4};
  const auto streams = analyzer.outstanding_streams(w);
  ASSERT_EQ(streams.size(), 3u);
  EXPECT_EQ(streams[0].d, 3u);
  EXPECT_EQ(streams[0].pivot, 16u);
  EXPECT_EQ(streams[1].d, 2u);
  EXPECT_EQ(streams[1].pivot, 5u);
  EXPECT_EQ(streams[2].d, 1u);
  EXPECT_EQ(streams[2].pivot, 6u);
}

TEST(Locality, SequentialTailIsOneOutstandingStream) {
  const LookbackWindow w = make_window({1, 2, 3, 4, 5});
  LocalityAnalyzer analyzer{4};
  const auto streams = analyzer.outstanding_streams(w);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].d, 1u);
  EXPECT_EQ(streams[0].pivot, 6u);
}

TEST(Locality, StaleStreamIsNotOutstanding) {
  // The {1,2} run ended long ago relative to its stride.
  const LookbackWindow w = make_window({1, 2, 50, 60, 70, 80, 90, 95});
  LocalityAnalyzer analyzer{4};
  EXPECT_TRUE(analyzer.outstanding_streams(w).empty());
}

TEST(Locality, DuplicatePivotsAreMerged) {
  // Two links producing the same pivot yield one stream.
  const LookbackWindow w = make_window({5, 6, 5, 6});
  LocalityAnalyzer analyzer{4};
  const auto streams = analyzer.outstanding_streams(w);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].pivot, 7u);
}

TEST(Locality, EmptyAndTinyWindows) {
  LookbackWindow w{4};
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.0);
  EXPECT_TRUE(analyzer.outstanding_streams(w).empty());
  w.record(9, Time::from_us(1), 1.0);
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.0);
  EXPECT_TRUE(analyzer.outstanding_streams(w).empty());
}

TEST(Locality, DescendingSequenceScoresZero) {
  // Forward-stride analysis: reverse-sequential access is not prefetchable
  // by a +1 read-ahead and scores 0 (documented deviation from the paper's
  // ambiguous "absolute distance" wording).
  const LookbackWindow w = make_window({9, 8, 7, 6, 5});
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 0.0);
}

TEST(Locality, PartiallyFilledWindowNormalizesByCurrentSize) {
  LookbackWindow w{20};
  std::int64_t t = 0;
  for (const mem::PageId p : {1u, 2u, 3u, 4u}) {
    w.record(p, Time::from_us(++t), 1.0);
  }
  LocalityAnalyzer analyzer{4};
  EXPECT_DOUBLE_EQ(analyzer.score(w), 1.0);  // 4/(4*1)
}

// The §3.2 stride of position p, read straight off the window.
std::size_t reference_stride(const LookbackWindow& w, std::size_t p, std::size_t dmax) {
  for (std::size_t d = 1; d <= dmax && p + d < w.size(); ++d) {
    if (w.page(p + d) == w.page(p) + 1) {
      return d;
    }
  }
  return 0;
}

TEST(Locality, SinglePassMatchesTwoPassDefinitions) {
  // score_and_streams() fuses score() and outstanding_streams() into one
  // sweep over a copy of the window; on random windows (partly filled and
  // wrapped rings, small page universes so strides and duplicate pivots are
  // common) it must reproduce both, and S must be Eq. 1 over stride_counts().
  sim::Rng rng{2024};
  std::vector<StrideStream> streams;
  for (int round = 0; round < 4000; ++round) {
    const std::size_t capacity = 2 + rng.uniform(63);
    const std::size_t dmax = 1 + rng.uniform(8);
    LookbackWindow w{capacity};
    const std::uint64_t universe = 2 + rng.uniform(3 * capacity);
    const std::uint64_t records = rng.uniform(3 * capacity);
    std::int64_t t = 0;
    for (std::uint64_t i = 0; i < records; ++i) {
      w.record(rng.uniform(universe), Time::from_us(++t), 1.0);
    }
    LookbackWindow::PageArray pages{};
    w.copy_pages(pages);
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(pages[i], w.page(i));
    }

    const LocalityAnalyzer analyzer{dmax};
    const double s = analyzer.score_and_streams(w, streams);

    const std::vector<std::uint64_t> counts = analyzer.stride_counts(w);
    ASSERT_EQ(counts.size(), dmax);
    std::vector<std::uint64_t> masks(dmax + 1, 0);
    std::vector<StrideStream> expected_streams;
    for (std::size_t p = 0; p + 1 < w.size(); ++p) {
      const std::size_t d = reference_stride(w, p, dmax);
      if (d == 0) {
        continue;
      }
      masks[d] |= (std::uint64_t{1} << p) | (std::uint64_t{1} << (p + d));
      const std::size_t end = p + d;
      const mem::PageId pivot = w.page(end) + 1;
      const bool seen = std::any_of(expected_streams.begin(), expected_streams.end(),
                                    [pivot](const StrideStream& e) { return e.pivot == pivot; });
      if (end + d >= w.size() && !seen) {
        expected_streams.push_back(StrideStream{d, end, pivot});
      }
    }
    double expected_s = 0.0;
    for (std::size_t d = 1; d <= dmax; ++d) {
      ASSERT_EQ(counts[d - 1], static_cast<std::uint64_t>(std::popcount(masks[d])));
      if (w.size() >= 2) {
        expected_s += static_cast<double>(counts[d - 1]) /
                      (static_cast<double>(w.size()) * static_cast<double>(d));
      }
    }
    expected_s = std::min(expected_s, 1.0);
    ASSERT_EQ(s, expected_s) << "round " << round;
    ASSERT_EQ(s, analyzer.score(w)) << "round " << round;

    const std::vector<StrideStream> two_pass = analyzer.outstanding_streams(w);
    ASSERT_EQ(streams.size(), expected_streams.size()) << "round " << round;
    ASSERT_EQ(two_pass.size(), expected_streams.size()) << "round " << round;
    const auto same = [](const StrideStream& a, const StrideStream& b) {
      return a.d == b.d && a.end_index == b.end_index && a.pivot == b.pivot;
    };
    ASSERT_TRUE(std::equal(streams.begin(), streams.end(), expected_streams.begin(), same))
        << "round " << round;
    ASSERT_TRUE(std::equal(two_pass.begin(), two_pass.end(), expected_streams.begin(), same))
        << "round " << round;
  }
}

}  // namespace
}  // namespace ampom::core
