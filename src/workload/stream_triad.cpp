#include "workload/stream_triad.hpp"

namespace ampom::workload {

StreamTriad::StreamTriad(StreamTriadConfig config)
    : BufferedStream{config.memory}, config_{config} {
  array_pages_ = heap_pages() / 3;
  a_ = heap_begin();
  b_ = a_ + array_pages_;
  c_ = b_ + array_pages_;
}

void StreamTriad::refill() {
  if (phase_ == Phase::Init) {
    // Sequential value-initialization of a, b, c (one linear sweep).
    const std::uint64_t total = array_pages_ * 3;
    const std::uint64_t end = std::min(init_pos_ + kRefillBatch, total);
    for (; init_pos_ < end; ++init_pos_) {
      emit(a_ + init_pos_, config_.cpu_init);
    }
    if (init_pos_ >= total) {
      phase_ = Phase::Passes;
    }
    return;
  }
  if (phase_ == Phase::Done) {
    return;
  }

  const std::uint64_t end = std::min(pos_ + kRefillBatch, array_pages_);
  for (std::uint64_t i = pos_; i < end; ++i) {
    switch (sub_) {
      case 0:  // COPY: c = a
        emit(a_ + i, config_.cpu_per_ref);
        emit(c_ + i, config_.cpu_per_ref);
        break;
      case 1:  // SCALE: b = s * c
        emit(c_ + i, config_.cpu_per_ref);
        emit(b_ + i, config_.cpu_per_ref);
        break;
      case 2:  // ADD: c = a + b
        emit(a_ + i, config_.cpu_per_ref);
        emit(b_ + i, config_.cpu_per_ref);
        emit(c_ + i, config_.cpu_per_ref);
        break;
      default:  // TRIAD: a = b + s * c
        emit(b_ + i, config_.cpu_per_ref);
        emit(c_ + i, config_.cpu_per_ref);
        emit(a_ + i, config_.cpu_per_ref);
        break;
    }
  }
  pos_ = end;
  if (pos_ >= array_pages_) {
    pos_ = 0;
    if (++sub_ >= 4) {
      sub_ = 0;
      if (++iter_ >= config_.iterations) {
        phase_ = Phase::Done;
      }
    }
  }
}

}  // namespace ampom::workload
