#pragma once
// Dependent-zone sizing and page selection (paper §3.3-§3.4).
//
// N = (c'/c) * S * r * t   with   t = 2*t0 + td + 1/r        (Eq. 3)
//
// which expands to N = (c'/c) * S * (r * (2*t0 + td) + 1): the number of
// pages the process will consume during one prefetch round trip, scaled by
// how strongly it is striding (S) and how much faster it could run (c'/c).
//
// Page selection: N/m pages after each of the m outstanding-stream pivots;
// quota saved on pages already selected by another stream extends that
// stream further. With no outstanding stream, the N pages after the last
// reference are selected (Linux-style read-ahead).

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/locality.hpp"
#include "core/lookback_window.hpp"
#include "simcore/time.hpp"

namespace ampom::core {

struct ZoneInputs {
  double locality_score{0.0};  // S
  double paging_rate_hz{0.0};  // r
  double cpu_mean{1.0};        // c  (average C_i over W)
  double cpu_next{1.0};        // c' (expected share over the next period)
  sim::Time rtt_one_way{};     // t0
  sim::Time page_transfer{};   // td
};

// Number of pages in the dependent zone (Eq. 3), clamped to
// [0, config.zone_cap]; returns config.fallback_zone when the paging rate is
// not yet measurable.
[[nodiscard]] std::uint64_t zone_size(const ZoneInputs& in, const AmpomConfig& config);

// Which pages form the zone, written to `zone` (its previous contents are
// replaced; its capacity is kept). `total_pages` clips at the end of the
// address space. The result preserves stream order and contains no
// duplicates. At most LookbackWindow::kMaxCapacity streams, the most a
// window can hold; more throw std::invalid_argument.
void select_zone(const LookbackWindow& window, const std::vector<StrideStream>& streams,
                 std::uint64_t zone_pages, std::uint64_t total_pages,
                 std::vector<mem::PageId>& zone);
[[nodiscard]] std::vector<mem::PageId> select_zone(const LookbackWindow& window,
                                                   const std::vector<StrideStream>& streams,
                                                   std::uint64_t zone_pages,
                                                   std::uint64_t total_pages);

}  // namespace ampom::core
