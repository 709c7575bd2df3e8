#include "workload/ptrans.hpp"

#include <cmath>

namespace ampom::workload {

Ptrans::Ptrans(PtransConfig config) : BufferedStream{config.memory}, config_{config} {
  matrix_pages_ = heap_pages() / 2;
  block_pages_ = std::min(config.block_pages, matrix_pages_);
  grid_ = static_cast<std::uint64_t>(
      std::floor(std::sqrt(static_cast<double>(matrix_pages_ / block_pages_))));
  if (grid_ == 0) {
    grid_ = 1;
  }
  block_pages_ = matrix_pages_ / (grid_ * grid_);
  matrix_pages_ = grid_ * grid_ * block_pages_;
  a_ = heap_begin();
  b_ = a_ + matrix_pages_;
}

void Ptrans::refill() {
  switch (phase_) {
    case Phase::Init: {
      const std::uint64_t total = matrix_pages_ * 2;
      const std::uint64_t end = std::min(init_pos_ + kRefillBatch, total);
      for (; init_pos_ < end; ++init_pos_) {
        emit(a_ + init_pos_, config_.cpu_init);
      }
      if (init_pos_ >= total) {
        phase_ = Phase::Transpose;
      }
      return;
    }
    case Phase::Transpose: {
      // One block step: A(bi, bj) = A(bj, bi)^T + B(bi, bj). The source
      // block sits at the transposed coordinates — a large stride from the
      // destination, interleaved page by page.
      const mem::PageId dst = block_page(a_, bi_, bj_);
      const mem::PageId src = block_page(a_, bj_, bi_);
      const mem::PageId add = block_page(b_, bi_, bj_);
      for (std::uint64_t p = 0; p < block_pages_; ++p) {
        emit(src + p, config_.cpu_per_ref);
        emit(add + p, config_.cpu_per_ref);
        emit(dst + p, config_.cpu_per_ref);
      }
      if (++bj_ >= grid_) {
        bj_ = 0;
        if (++bi_ >= grid_) {
          phase_ = Phase::Done;
        }
      }
      return;
    }
    case Phase::Done:
      return;
  }
}

}  // namespace ampom::workload
