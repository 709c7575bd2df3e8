// Tests of the dependent-zone sizing (Eq. 3) and page selection (§3.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "core/dependent_zone.hpp"
#include "simcore/rng.hpp"

namespace ampom::core {
namespace {

using sim::Time;

LookbackWindow make_window(const std::vector<mem::PageId>& pages) {
  LookbackWindow w{std::max<std::size_t>(pages.size(), 2)};
  std::int64_t t = 0;
  for (const mem::PageId p : pages) {
    w.record(p, Time::from_us(++t), 1.0);
  }
  return w;
}

AmpomConfig no_floor_config() {
  AmpomConfig cfg;
  cfg.min_zone = 0;
  return cfg;
}

TEST(ZoneSize, MatchesEquationThree) {
  // N = (c'/c) * S * (r*(2t0+td) + 1)
  ZoneInputs in;
  in.locality_score = 0.5;
  in.paging_rate_hz = 1000.0;
  in.cpu_mean = 0.5;
  in.cpu_next = 1.0;
  in.rtt_one_way = Time::from_us(100);   // 2t0 = 200 us
  in.page_transfer = Time::from_us(300);  // t0*2 + td = 500 us
  // N = 2 * 0.5 * (1000*0.0005 + 1) = 1.5 -> rounds to 2.
  EXPECT_EQ(zone_size(in, no_floor_config()), 2u);
}

TEST(ZoneSize, GrowsWithPagingRate) {
  ZoneInputs in;
  in.locality_score = 1.0;
  in.cpu_mean = 1.0;
  in.cpu_next = 1.0;
  in.rtt_one_way = Time::from_us(100);
  in.page_transfer = Time::from_us(300);
  in.paging_rate_hz = 1000.0;
  const auto slow = zone_size(in, no_floor_config());
  in.paging_rate_hz = 10000.0;
  const auto fast = zone_size(in, no_floor_config());
  EXPECT_GT(fast, slow);
}

TEST(ZoneSize, GrowsWithLocality) {
  ZoneInputs in;
  in.paging_rate_hz = 5000.0;
  in.cpu_mean = 1.0;
  in.cpu_next = 1.0;
  in.rtt_one_way = Time::from_us(100);
  in.page_transfer = Time::from_us(300);
  in.locality_score = 0.2;
  const auto low = zone_size(in, no_floor_config());
  in.locality_score = 0.9;
  EXPECT_GT(zone_size(in, no_floor_config()), low);
}

TEST(ZoneSize, GrowsWhenNetworkIsBusy) {
  // Busier network -> larger td -> longer pipeline to hide (§3.5).
  ZoneInputs in;
  in.locality_score = 1.0;
  in.paging_rate_hz = 5000.0;
  in.cpu_mean = 1.0;
  in.cpu_next = 1.0;
  in.rtt_one_way = Time::from_us(100);
  in.page_transfer = Time::from_us(300);
  const auto idle = zone_size(in, no_floor_config());
  in.page_transfer = Time::from_ms(3);  // available bandwidth collapsed
  EXPECT_GT(zone_size(in, no_floor_config()), idle);
}

TEST(ZoneSize, GrowsWithExpectedCpuHeadroom) {
  // c'/c > 1: the process could consume faster than it recently did.
  ZoneInputs in;
  in.locality_score = 1.0;
  in.paging_rate_hz = 2000.0;
  in.rtt_one_way = Time::from_us(100);
  in.page_transfer = Time::from_us(300);
  in.cpu_mean = 1.0;
  in.cpu_next = 1.0;
  const auto flat = zone_size(in, no_floor_config());
  in.cpu_mean = 0.1;  // it was starved...
  in.cpu_next = 1.0;  // ...but will have a full CPU
  EXPECT_GT(zone_size(in, no_floor_config()), flat);
}

TEST(ZoneSize, ZeroLocalityFallsToFloor) {
  ZoneInputs in;
  in.locality_score = 0.0;
  in.paging_rate_hz = 5000.0;
  in.cpu_mean = 1.0;
  in.cpu_next = 1.0;
  AmpomConfig cfg;
  cfg.min_zone = 8;
  EXPECT_EQ(zone_size(in, cfg), 8u);  // the Linux-read-ahead baseline (§5.3)
  cfg.min_zone = 0;
  EXPECT_EQ(zone_size(in, cfg), 0u);
}

TEST(ZoneSize, CapBoundsTheResult) {
  ZoneInputs in;
  in.locality_score = 1.0;
  in.paging_rate_hz = 1e6;
  in.cpu_mean = 0.01;
  in.cpu_next = 1.0;
  in.rtt_one_way = Time::from_ms(10);
  in.page_transfer = Time::from_ms(10);
  AmpomConfig cfg;
  cfg.zone_cap = 64;
  EXPECT_EQ(zone_size(in, cfg), 64u);
}

TEST(ZoneSize, UnmeasurableRateUsesFallback) {
  ZoneInputs in;
  in.paging_rate_hz = 0.0;
  AmpomConfig cfg;
  cfg.fallback_zone = 5;
  EXPECT_EQ(zone_size(in, cfg), 5u);
}

TEST(SelectZone, ReadAheadWhenNoStreams) {
  // §3.4: no outstanding stream -> the N pages after r_l.
  const LookbackWindow w = make_window({40, 7, 90});
  const auto zone = select_zone(w, {}, 4, 1000);
  EXPECT_EQ(zone, (std::vector<mem::PageId>{91, 92, 93, 94}));
}

TEST(SelectZone, QuotaSplitsAcrossStreams) {
  const LookbackWindow w = make_window({1, 2, 3});
  const std::vector<StrideStream> streams{{1, 9, 100}, {2, 8, 200}};
  const auto zone = select_zone(w, streams, 6, 1000);
  ASSERT_EQ(zone.size(), 6u);
  EXPECT_EQ(std::count(zone.begin(), zone.end(), 100), 1);
  EXPECT_EQ(std::count(zone.begin(), zone.end(), 102), 1);
  EXPECT_EQ(std::count(zone.begin(), zone.end(), 200), 1);
  EXPECT_EQ(std::count(zone.begin(), zone.end(), 202), 1);
}

TEST(SelectZone, RemainderGoesToEarlierStreams) {
  const LookbackWindow w = make_window({1, 2});
  const std::vector<StrideStream> streams{{1, 9, 100}, {2, 8, 200}, {3, 7, 300}};
  const auto zone = select_zone(w, streams, 7, 1000);  // 3 + 2 + 2
  EXPECT_EQ(std::count(zone.begin(), zone.end(), 102), 1);
  EXPECT_EQ(std::count(zone.begin(), zone.end(), 103), 0);
  EXPECT_EQ(zone.size(), 7u);
}

TEST(SelectZone, SavedQuotaExtendsOverlappingStreams) {
  // §3.4: a page already dependent in another stream does not consume
  // quota; the stream extends further instead.
  const LookbackWindow w = make_window({1, 2});
  const std::vector<StrideStream> streams{{1, 9, 100}, {1, 8, 100}};
  const auto zone = select_zone(w, streams, 6, 1000);
  // Both streams share pivot 100; the second stream's quota extends past
  // the first stream's pages: 100,101,102 then 103,104,105.
  EXPECT_EQ(zone, (std::vector<mem::PageId>{100, 101, 102, 103, 104, 105}));
}

TEST(SelectZone, NoDuplicatesEver) {
  const LookbackWindow w = make_window({1, 2});
  const std::vector<StrideStream> streams{{1, 9, 10}, {2, 8, 12}, {3, 7, 11}};
  const auto zone = select_zone(w, streams, 9, 1000);
  std::unordered_set<mem::PageId> unique(zone.begin(), zone.end());
  EXPECT_EQ(unique.size(), zone.size());
}

TEST(SelectZone, ClipsAtAddressSpaceEnd) {
  const LookbackWindow w = make_window({1, 2});
  const std::vector<StrideStream> streams{{1, 9, 98}};
  const auto zone = select_zone(w, streams, 10, 100);
  EXPECT_EQ(zone, (std::vector<mem::PageId>{98, 99}));
}

TEST(SelectZone, ReadAheadClipsAtAddressSpaceEnd) {
  const LookbackWindow w = make_window({7, 97});
  const auto zone = select_zone(w, {}, 10, 100);
  EXPECT_EQ(zone, (std::vector<mem::PageId>{98, 99}));
}

TEST(SelectZone, ZeroZoneOrEmptyWindowYieldsNothing) {
  const LookbackWindow w = make_window({1, 2});
  EXPECT_TRUE(select_zone(w, {}, 0, 100).empty());
  LookbackWindow empty{4};
  EXPECT_TRUE(select_zone(empty, {}, 5, 100).empty());
}

TEST(SelectZone, PaperPivotsProduceExpectedZone) {
  // The §3.4 example's pivots are 16, 5, 6. With N = 3 and m = 3, each
  // stream contributes its pivot; pivot 6 of the third stream is fresh
  // (5's stream took page 5 only).
  const LookbackWindow w = make_window({13, 27, 7, 8, 14, 8, 3, 15, 4, 5});
  const std::vector<StrideStream> streams{{3, 7, 16}, {2, 8, 5}, {1, 9, 6}};
  const auto zone = select_zone(w, streams, 3, 1000);
  EXPECT_EQ(zone, (std::vector<mem::PageId>{16, 5, 6}));
}

// The hash-set walk select_zone used before it tracked chosen runs as
// intervals; kept here as the oracle for the interval walk.
std::vector<mem::PageId> hash_set_select_zone(const LookbackWindow& window,
                                              const std::vector<StrideStream>& streams,
                                              std::uint64_t zone_pages,
                                              std::uint64_t total_pages) {
  std::vector<mem::PageId> zone;
  if (zone_pages == 0 || window.size() == 0 || total_pages == 0) {
    return zone;
  }
  std::unordered_set<mem::PageId> chosen;
  auto take_from = [&](mem::PageId start, std::uint64_t quota) {
    mem::PageId page = start;
    while (quota > 0 && page < total_pages) {
      if (chosen.insert(page).second) {
        zone.push_back(page);
        --quota;
      }
      ++page;
    }
  };
  if (streams.empty()) {
    take_from(window.last_page() + 1, zone_pages);
    return zone;
  }
  const auto m = static_cast<std::uint64_t>(streams.size());
  const std::uint64_t base = zone_pages / m;
  std::uint64_t remainder = zone_pages % m;
  for (const StrideStream& stream : streams) {
    std::uint64_t quota = base;
    if (remainder > 0) {
      ++quota;
      --remainder;
    }
    if (quota > 0) {
      take_from(stream.pivot, quota);
    }
  }
  return zone;
}

TEST(SelectZone, MatchesHashSetReferenceOnRandomStreams) {
  // Pivots cluster around a few centres, so runs overlap, touch and repeat;
  // total_pages often cuts the walks short.
  sim::Rng rng{14};
  std::vector<mem::PageId> zone;
  for (int round = 0; round < 10000; ++round) {
    const std::uint64_t total_pages = 1 + rng.uniform(600);
    const LookbackWindow w = make_window({rng.uniform(total_pages), rng.uniform(total_pages)});
    std::vector<StrideStream> streams;
    const std::uint64_t centres = 1 + rng.uniform(3);
    const std::uint64_t count = rng.uniform(13);
    for (std::uint64_t i = 0; i < count; ++i) {
      const mem::PageId centre = (rng.uniform(centres) * total_pages) / centres;
      streams.push_back(StrideStream{1, 0, centre + rng.uniform(48)});
    }
    const std::uint64_t zone_pages = rng.uniform(257);
    select_zone(w, streams, zone_pages, total_pages, zone);
    ASSERT_EQ(zone, hash_set_select_zone(w, streams, zone_pages, total_pages))
        << "round " << round;
  }
}

TEST(SelectZone, OutputBufferIsReplacedNotAppended) {
  const LookbackWindow w = make_window({7, 9});
  std::vector<mem::PageId> zone{1, 2, 3};
  select_zone(w, {}, 2, 100, zone);
  EXPECT_EQ(zone, (std::vector<mem::PageId>{10, 11}));
  select_zone(w, {}, 0, 100, zone);
  EXPECT_TRUE(zone.empty());
}

TEST(SelectZone, RejectsMoreStreamsThanAWindowHolds) {
  const LookbackWindow w = make_window({1, 2});
  const std::vector<StrideStream> streams(LookbackWindow::kMaxCapacity + 1, StrideStream{1, 0, 5});
  EXPECT_THROW((void)select_zone(w, streams, 8, 100), std::invalid_argument);
  const std::vector<StrideStream> most(LookbackWindow::kMaxCapacity, StrideStream{1, 0, 5});
  EXPECT_EQ(select_zone(w, most, 8, 100),
            (std::vector<mem::PageId>{5, 6, 7, 8, 9, 10, 11, 12}));
}

}  // namespace
}  // namespace ampom::core
