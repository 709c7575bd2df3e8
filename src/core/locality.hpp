#pragma once
// Spatial-locality analysis over the lookback window (paper §3.2 and §3.4).
//
// Stride construct: the stride of a reference r_p is the minimum forward
// distance d at which page r_p + 1 appears in W (d <= dmax). stride_d counts
// the window positions participating as endpoints of stride-d links — this
// reproduces both worked examples in §3.2:
//   {1,99,2,45,3,78,4}  -> stride_2 = 4 (pages 1,2,3,4)
//   {10,99,11,34,12,85} -> stride_2 = 3, S = 3/(6*2) = 0.25
// and a purely sequential window scores S = 1.
//
// Outstanding streams (§3.4): a stride-d stream ending at index e is
// outstanding when e + d >= l (its continuation would still land inside the
// window); its prefetch pivot is the page after the stream's end.

#include <array>
#include <cstdint>
#include <vector>

#include "core/lookback_window.hpp"

namespace ampom::core {

struct StrideStream {
  std::size_t d{0};          // stride of the stream
  std::size_t end_index{0};  // window index of the stream's last element
  mem::PageId pivot{mem::kInvalidPage};  // first page to prefetch
};

class LocalityAnalyzer {
 public:
  explicit LocalityAnalyzer(std::size_t dmax) : dmax_{dmax} {}

  [[nodiscard]] std::size_t dmax() const { return dmax_; }

  // stride_d for d = 1..dmax; index 0 of the result is stride_1.
  [[nodiscard]] std::vector<std::uint64_t> stride_counts(const LookbackWindow& w) const;

  // The spatial locality score S (Eq. 1), in [0, 1].
  [[nodiscard]] double score(const LookbackWindow& w) const;

  // All outstanding stride streams, ordered by end index (oldest first),
  // de-duplicated by pivot.
  [[nodiscard]] std::vector<StrideStream> outstanding_streams(const LookbackWindow& w) const;

  // score() and outstanding_streams() from a single sweep of the window:
  // returns S and replaces the contents of `streams` (its capacity is kept).
  // This is the per-fault path of Algorithm 1.
  double score_and_streams(const LookbackWindow& w, std::vector<StrideStream>& streams) const;

 private:
  // Participation mask per stride d (bit p = window position p); a stride
  // is at most l - 1 <= 63, so index d always fits.
  using Masks = std::array<std::uint64_t, LookbackWindow::kMaxCapacity>;

  // Minimum forward stride of position p among the first n pages, or 0 if
  // none within dmax.
  [[nodiscard]] std::size_t stride_of(const LookbackWindow::PageArray& pages, std::size_t n,
                                      std::size_t p) const;
  [[nodiscard]] Masks masks_of(const LookbackWindow& w) const;
  [[nodiscard]] double score_of(const Masks& masks, std::size_t n) const;
  // Appends the stride-d link ending at `end` if it is outstanding and its
  // pivot is new.
  static void add_if_outstanding(std::vector<StrideStream>& streams,
                                 const LookbackWindow::PageArray& pages, std::size_t n,
                                 std::size_t d, std::size_t end);

  std::size_t dmax_;
};

}  // namespace ampom::core
