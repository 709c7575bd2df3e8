#include "workload/hpl.hpp"

#include <cmath>

namespace ampom::workload {

Hpl::Hpl(HplConfig config) : BufferedStream{config.memory}, config_{config} {
  const std::uint64_t matrix_pages = heap_pages();
  block_pages_ = std::min(config.block_pages, matrix_pages);
  grid_ = static_cast<std::uint64_t>(
      std::floor(std::sqrt(static_cast<double>(matrix_pages / block_pages_))));
  if (grid_ == 0) {
    grid_ = 1;
  }
  block_pages_ = matrix_pages / (grid_ * grid_);
}

void Hpl::emit_block(std::uint64_t row, std::uint64_t col, sim::Time cpu) {
  const mem::PageId first = block_page(row, col);
  for (std::uint64_t p = 0; p < block_pages_; ++p) {
    emit(first + p, cpu);
  }
}

void Hpl::refill() {
  switch (phase_) {
    case Phase::Init: {
      const std::uint64_t total = grid_ * grid_ * block_pages_;
      const std::uint64_t end = std::min(init_pos_ + kRefillBatch, total);
      for (; init_pos_ < end; ++init_pos_) {
        emit(heap_begin() + init_pos_, config_.cpu_init);
      }
      if (init_pos_ >= total) {
        phase_ = Phase::Factorize;
        ti_ = tj_ = k_ + 1;
      }
      return;
    }
    case Phase::Factorize: {
      if (!panel_done_) {
        // Panel: block column k from the diagonal down (pivot search + scale).
        for (std::uint64_t i = k_; i < grid_; ++i) {
          emit_block(i, k_, config_.cpu_panel);
        }
        panel_done_ = true;
        if (k_ + 1 >= grid_) {
          phase_ = Phase::Done;
        }
        return;
      }
      // One trailing-update step: A(ti, tj) -= A(ti, k) * A(k, tj).
      emit_block(k_, tj_, config_.cpu_per_ref);
      emit_block(ti_, k_, config_.cpu_per_ref);
      emit_block(ti_, tj_, config_.cpu_per_ref);
      if (++tj_ >= grid_) {
        tj_ = k_ + 1;
        if (++ti_ >= grid_) {
          ++k_;
          panel_done_ = false;
          ti_ = tj_ = k_ + 1;
          if (k_ >= grid_) {
            phase_ = Phase::Done;
          }
        }
      }
      return;
    }
    case Phase::Done:
      return;
  }
}

}  // namespace ampom::workload
