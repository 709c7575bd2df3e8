#include "workload/dgemm.hpp"

#include <cmath>
#include <stdexcept>

namespace ampom::workload {

Dgemm::Dgemm(DgemmConfig config) : BufferedStream{config.memory}, config_{config} {
  const sim::Bytes ws = config.working_set == 0 ? config.memory : config.working_set;
  if (ws > config.memory) {
    throw std::invalid_argument("Dgemm: working set exceeds allocated memory");
  }
  const std::uint64_t ws_pages = std::min(mem::pages_for_bytes(ws), heap_pages());
  matrix_pages_ = ws_pages / 3;
  if (matrix_pages_ == 0) {
    throw std::invalid_argument("Dgemm: working set too small for three matrices");
  }
  block_pages_ = std::min(config.block_pages, matrix_pages_);
  grid_ = static_cast<std::uint64_t>(
      std::floor(std::sqrt(static_cast<double>(matrix_pages_ / block_pages_))));
  if (grid_ == 0) {
    grid_ = 1;
  }
  // Refit the block size so grid^2 blocks cover (nearly) the whole matrix —
  // otherwise the truncated tail would act like an accidental small working
  // set and skew the full-working-set experiments.
  block_pages_ = matrix_pages_ / (grid_ * grid_);
  matrix_pages_ = grid_ * grid_ * block_pages_;
  a_ = heap_begin();
  b_ = a_ + matrix_pages_;
  c_ = b_ + matrix_pages_;
}

void Dgemm::emit_block(mem::PageId base, std::uint64_t row, std::uint64_t col) {
  const mem::PageId first = block_page(base, row, col);
  for (std::uint64_t p = 0; p < block_pages_; ++p) {
    emit(first + p, config_.cpu_per_ref);
  }
}

void Dgemm::refill() {
  if (phase_ == Phase::Init) {
    const std::uint64_t total = matrix_pages_ * 3;
    const std::uint64_t end = std::min(init_pos_ + kRefillBatch, total);
    for (; init_pos_ < end; ++init_pos_) {
      emit(a_ + init_pos_, config_.cpu_init);
    }
    if (init_pos_ >= total) {
      phase_ = Phase::Gemm;
    }
    return;
  }
  if (phase_ == Phase::Done) {
    return;
  }

  // One (ii, jj, kk) block step per refill: C(ii,jj) += A(ii,kk) * B(kk,jj).
  if (kk_ == 0) {
    emit_block(c_, ii_, jj_);
  }
  emit_block(a_, ii_, kk_);
  emit_block(b_, kk_, jj_);

  if (++kk_ >= grid_) {
    kk_ = 0;
    if (++jj_ >= grid_) {
      jj_ = 0;
      if (++ii_ >= grid_) {
        phase_ = Phase::Done;
      }
    }
  }
}

}  // namespace ampom::workload
