#pragma once
// The lookback window W with its companion arrays T and C (paper §3.1).
//
// W records the addresses of recently faulted pages; T their access times;
// C the CPU utilization at each record. Consecutive repeated references to
// the same page are temporal locality and collapse into a single entry
// (r_p != r_{p+1} for all p).

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "mem/page.hpp"
#include "simcore/time.hpp"

namespace ampom::core {

class LookbackWindow {
 public:
  struct Entry {
    mem::PageId page{mem::kInvalidPage};
    sim::Time when{};
    double cpu{0.0};
  };

  // The stride analysis keeps one bit per window position in a 64-bit mask.
  static constexpr std::size_t kMaxCapacity = 64;
  using PageArray = std::array<mem::PageId, kMaxCapacity>;

  explicit LookbackWindow(std::size_t capacity) : ring_(capacity) {
    if (capacity < 2 || capacity > kMaxCapacity) {
      throw std::invalid_argument("LookbackWindow capacity must be in [2, 64]");
    }
  }

  // Record fault `page` at `when` with CPU utilization `cpu`. Returns false
  // when collapsed into the previous entry (consecutive repeat).
  bool record(mem::PageId page, sim::Time when, double cpu) {
    if (size_ > 0 && last_page() == page) {
      return false;
    }
    ring_[(head_ + size_) % ring_.size()] = Entry{page, when, cpu};
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      head_ = (head_ + 1) % ring_.size();
    }
    return true;
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool full() const { return size_ == ring_.size(); }

  // i = 0 is the oldest entry (r_1 in the paper); i = size()-1 the newest.
  [[nodiscard]] const Entry& at(std::size_t i) const {
    if (i >= size_) {
      throw std::out_of_range("LookbackWindow::at");
    }
    return slot(i);
  }

  [[nodiscard]] mem::PageId page(std::size_t i) const { return at(i).page; }
  // Copies the pages, oldest first, into out[0, size()).
  void copy_pages(PageArray& out) const {
    // The ring holds the window as [head_, end) followed by [0, wrap).
    const std::size_t first = std::min(size_, ring_.size() - head_);
    for (std::size_t i = 0; i < first; ++i) {
      out[i] = ring_[head_ + i].page;
    }
    for (std::size_t i = first; i < size_; ++i) {
      out[i] = ring_[i - first].page;
    }
  }
  [[nodiscard]] mem::PageId last_page() const { return at(size_ - 1).page; }
  [[nodiscard]] sim::Time first_time() const { return at(0).when; }
  [[nodiscard]] sim::Time last_time() const { return at(size_ - 1).when; }

  // c  — mean CPU utilization over the window (sum C_i / l).
  [[nodiscard]] double mean_cpu() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < size_; ++i) {
      sum += slot(i).cpu;
    }
    return size_ == 0 ? 0.0 : sum / static_cast<double>(size_);
  }
  // C_l — the utilization at the newest record (the paper's estimate of c').
  [[nodiscard]] double last_cpu() const { return at(size_ - 1).cpu; }

  // r — average paging rate over the window, in faults per second.
  // Defined only with >= 2 entries and a positive time span.
  [[nodiscard]] double paging_rate_hz() const {
    if (size_ < 2) {
      return 0.0;
    }
    const sim::Time span = last_time() - first_time();
    if (span <= sim::Time::zero()) {
      return 0.0;
    }
    return static_cast<double>(size_) / span.sec();
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] const Entry& slot(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  std::vector<Entry> ring_;
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace ampom::core
