#include "core/dependent_zone.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ampom::core {

std::uint64_t zone_size(const ZoneInputs& in, const AmpomConfig& config) {
  if (in.paging_rate_hz <= 0.0) {
    return std::min(config.fallback_zone, config.zone_cap);
  }
  const double c = in.cpu_mean <= 0.0 ? 0.01 : in.cpu_mean;
  const double c_ratio = in.cpu_next / c;
  const double round_trip_sec = (in.rtt_one_way * 2 + in.page_transfer).sec();
  // N = (c'/c) * S * (r*(2t0+td) + 1)
  const double n = c_ratio * in.locality_score * (in.paging_rate_hz * round_trip_sec + 1.0);
  const auto rounded = n <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(n));
  // Floor: the Linux-style read-ahead baseline (§5.3); cap: burst bound.
  return std::min(std::max(rounded, config.min_zone), config.zone_cap);
}

namespace {

// The pages chosen so far, as sorted, disjoint, non-adjacent half-open
// intervals. Each stream's walk leaves [pivot, stop) fully chosen, so m
// walks leave at most m intervals.
class ChosenPages {
 public:
  // Appends up to `quota` unchosen pages from `start` upward (below
  // `total_pages`) to `zone`. Pages already chosen by another stream do not
  // consume quota: the "saved quota" extends this stream with further pages
  // (§3.4). Whole runs are emitted at once and chosen intervals are skipped
  // in one step.
  void take(mem::PageId start, std::uint64_t quota, std::uint64_t total_pages,
            std::vector<mem::PageId>& zone) {
    const Run* next =
        std::partition_point(begin(), end(), [start](const Run& r) { return r.end <= start; });
    mem::PageId page = start;
    while (quota > 0 && page < total_pages) {
      if (next != end() && next->begin <= page) {
        page = (next++)->end;
        continue;
      }
      const mem::PageId gap_end = next != end() ? std::min(next->begin, total_pages) : total_pages;
      const std::uint64_t run = std::min(quota, gap_end - page);
      const std::size_t old_size = zone.size();
      zone.resize(old_size + run);
      std::iota(zone.begin() + static_cast<std::ptrdiff_t>(old_size), zone.end(), page);
      page += run;
      quota -= run;
    }
    if (page > start) {
      insert(start, page);
    }
  }

 private:
  struct Run {
    mem::PageId begin;
    mem::PageId end;
  };

  Run* begin() { return runs_.data(); }
  Run* end() { return runs_.data() + count_; }

  // Marks [first, last) chosen, merging every run it overlaps or touches.
  void insert(mem::PageId first, mem::PageId last) {
    Run* lo = std::partition_point(begin(), end(), [first](const Run& r) { return r.end < first; });
    Run* hi = std::partition_point(lo, end(), [last](const Run& r) { return r.begin <= last; });
    const auto merged = static_cast<std::size_t>(hi - lo);
    if (merged == 0) {
      std::move_backward(lo, end(), end() + 1);  // open a slot at lo
    } else {
      first = std::min(first, lo->begin);
      last = std::max(last, (hi - 1)->end);
      std::move(hi, end(), lo + 1);  // [lo, hi) collapses into *lo
    }
    count_ = count_ + 1 - merged;
    *lo = Run{first, last};
  }

  std::array<Run, LookbackWindow::kMaxCapacity> runs_;  // [0, count_) in use
  std::size_t count_{0};
};

}  // namespace

void select_zone(const LookbackWindow& window, const std::vector<StrideStream>& streams,
                 std::uint64_t zone_pages, std::uint64_t total_pages,
                 std::vector<mem::PageId>& zone) {
  zone.clear();
  if (zone_pages == 0 || window.size() == 0 || total_pages == 0) {
    return;
  }
  if (streams.size() > LookbackWindow::kMaxCapacity) {
    throw std::invalid_argument("select_zone: more streams than a lookback window holds");
  }
  ChosenPages chosen;

  if (streams.empty()) {
    // Read-ahead after the most recent reference.
    chosen.take(window.last_page() + 1, zone_pages, total_pages, zone);
    return;
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
      chosen.take(stream.pivot, quota, total_pages, zone);
    }
  }
}

std::vector<mem::PageId> select_zone(const LookbackWindow& window,
                                     const std::vector<StrideStream>& streams,
                                     std::uint64_t zone_pages, std::uint64_t total_pages) {
  std::vector<mem::PageId> zone;
  select_zone(window, streams, zone_pages, total_pages, zone);
  return zone;
}

}  // namespace ampom::core
