#include "core/locality.hpp"

#include <algorithm>
#include <bit>

namespace ampom::core {

std::size_t LocalityAnalyzer::stride_of(const LookbackWindow::PageArray& pages, std::size_t n,
                                        std::size_t p) const {
  const mem::PageId wanted = pages[p] + 1;
  const std::size_t limit = std::min(n - 1 - p, dmax_);
  for (std::size_t d = 1; d <= limit; ++d) {
    if (pages[p + d] == wanted) {
      return d;
    }
  }
  return 0;
}

LocalityAnalyzer::Masks LocalityAnalyzer::masks_of(const LookbackWindow& w) const {
  LookbackWindow::PageArray pages;
  w.copy_pages(pages);
  const std::size_t n = w.size();
  Masks masks{};
  for (std::size_t p = 0; p + 1 < n; ++p) {
    const std::size_t d = stride_of(pages, n, p);
    if (d != 0) {
      masks[d] |= (std::uint64_t{1} << p) | (std::uint64_t{1} << (p + d));
    }
  }
  return masks;
}

double LocalityAnalyzer::score_of(const Masks& masks, std::size_t n) const {
  if (n < 2) {
    return 0.0;
  }
  // Strides above l - 1 have no links and no mask slot; skipping them only
  // drops zero terms.
  const std::size_t dmax = std::min(dmax_, n - 1);
  double s = 0.0;
  for (std::size_t d = 1; d <= dmax; ++d) {
    s += static_cast<double>(std::popcount(masks[d])) /
         (static_cast<double>(n) * static_cast<double>(d));
  }
  return s > 1.0 ? 1.0 : s;
}

void LocalityAnalyzer::add_if_outstanding(std::vector<StrideStream>& streams,
                                          const LookbackWindow::PageArray& pages,
                                          std::size_t n, std::size_t d, std::size_t end) {
  if (end + d < n) {
    return;  // not outstanding: the stream ended too long ago
  }
  const mem::PageId pivot = pages[end] + 1;
  const bool duplicate = std::any_of(streams.begin(), streams.end(),
                                     [pivot](const StrideStream& s) { return s.pivot == pivot; });
  if (!duplicate) {
    streams.push_back(StrideStream{d, end, pivot});
  }
}

std::vector<std::uint64_t> LocalityAnalyzer::stride_counts(const LookbackWindow& w) const {
  const Masks masks = masks_of(w);
  std::vector<std::uint64_t> counts(dmax_, 0);
  for (std::size_t d = 1; d <= dmax_ && d < masks.size(); ++d) {
    counts[d - 1] = static_cast<std::uint64_t>(std::popcount(masks[d]));
  }
  return counts;
}

double LocalityAnalyzer::score(const LookbackWindow& w) const {
  return score_of(masks_of(w), w.size());
}

std::vector<StrideStream> LocalityAnalyzer::outstanding_streams(const LookbackWindow& w) const {
  LookbackWindow::PageArray pages;
  w.copy_pages(pages);
  const std::size_t n = w.size();
  std::vector<StrideStream> streams;
  for (std::size_t p = 0; p + 1 < n; ++p) {
    const std::size_t d = stride_of(pages, n, p);
    if (d != 0) {
      add_if_outstanding(streams, pages, n, d, p + d);
    }
  }
  return streams;
}

double LocalityAnalyzer::score_and_streams(const LookbackWindow& w,
                                           std::vector<StrideStream>& streams) const {
  LookbackWindow::PageArray pages;
  w.copy_pages(pages);
  const std::size_t n = w.size();
  streams.clear();
  Masks masks{};
  for (std::size_t p = 0; p + 1 < n; ++p) {
    const std::size_t d = stride_of(pages, n, p);
    if (d != 0) {
      masks[d] |= (std::uint64_t{1} << p) | (std::uint64_t{1} << (p + d));
      add_if_outstanding(streams, pages, n, d, p + d);
    }
  }
  return score_of(masks, n);
}

}  // namespace ampom::core
