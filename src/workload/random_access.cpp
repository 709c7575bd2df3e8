#include "workload/random_access.hpp"

#include <cmath>

namespace ampom::workload {

RandomAccess::RandomAccess(RandomAccessConfig config)
    : BufferedStream{config.memory}, config_{config}, rng_{config.seed} {
  table_pages_ = heap_pages();
  total_updates_ = static_cast<std::uint64_t>(
      std::llround(config.updates_per_page * static_cast<double>(table_pages_)));
}

void RandomAccess::refill() {
  switch (phase_) {
    case Phase::Updates: {
      const std::uint64_t end = std::min(done_updates_ + kRefillBatch, total_updates_);
      for (; done_updates_ < end; ++done_updates_) {
        emit(heap_begin() + rng_.uniform(table_pages_), config_.cpu_per_update);
        if (config_.seq_interval != 0 && done_updates_ % config_.seq_interval == 0) {
          emit(heap_begin() + (seq_cursor_ % table_pages_), config_.cpu_seq);
          ++seq_cursor_;
        }
      }
      if (done_updates_ >= total_updates_) {
        phase_ = Phase::Verify;
      }
      return;
    }
    case Phase::Verify: {
      const std::uint64_t end = std::min(verify_pos_ + kRefillBatch, table_pages_);
      for (; verify_pos_ < end; ++verify_pos_) {
        emit(heap_begin() + verify_pos_, config_.cpu_verify);
      }
      if (verify_pos_ >= table_pages_) {
        phase_ = Phase::Done;
      }
      return;
    }
    case Phase::Done:
      return;
  }
}

}  // namespace ampom::workload
