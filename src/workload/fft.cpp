#include "workload/fft.hpp"

#include <algorithm>
#include <bit>

namespace ampom::workload {

Fft::Fft(FftConfig config) : BufferedStream{config.memory}, config_{config}, rng_{config.seed} {
  vector_pages_ = heap_pages();
  const auto log2_pages =
      static_cast<std::uint64_t>(std::bit_width(vector_pages_) > 0
                                     ? std::bit_width(vector_pages_) - 1
                                     : 0);
  stages_ = std::min(config.max_stages, log2_pages);
}

void Fft::refill() {
  switch (phase_) {
    case Phase::Init: {
      const std::uint64_t end = std::min(init_pos_ + kRefillBatch, vector_pages_);
      for (; init_pos_ < end; ++init_pos_) {
        emit(heap_begin() + init_pos_, config_.cpu_init);
      }
      if (init_pos_ >= vector_pages_) {
        phase_ = stages_ > 0 ? Phase::BitReversal : Phase::Done;
      }
      return;
    }
    case Phase::BitReversal: {
      // Sequential cursor paired with a pseudo-random partner page.
      const std::uint64_t end = std::min(rev_pos_ + kRefillBatch / 2, vector_pages_);
      for (; rev_pos_ < end; ++rev_pos_) {
        emit(heap_begin() + rev_pos_, config_.cpu_per_ref);
        emit(heap_begin() + rng_.uniform(vector_pages_), config_.cpu_per_ref);
      }
      if (rev_pos_ >= vector_pages_) {
        phase_ = Phase::Stages;
      }
      return;
    }
    case Phase::Stages: {
      // Stage k: butterflies pair page i with page i + span.
      const std::uint64_t span = std::max<std::uint64_t>(1, vector_pages_ >> (stage_ + 1));
      const std::uint64_t pairs = vector_pages_ - span;
      const std::uint64_t end = std::min(stage_pos_ + kRefillBatch / 2, pairs);
      for (; stage_pos_ < end; ++stage_pos_) {
        emit(heap_begin() + stage_pos_, config_.cpu_per_ref);
        emit(heap_begin() + stage_pos_ + span, config_.cpu_per_ref);
      }
      if (stage_pos_ >= pairs) {
        stage_pos_ = 0;
        if (++stage_ >= stages_) {
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
