#pragma once
// Synthetic reference streams with controlled locality — used by unit,
// property and ablation tests to isolate algorithm behaviour.

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "simcore/rng.hpp"
#include "workload/buffered_stream.hpp"

namespace ampom::workload {

// Pure sequential sweep over the heap, `passes` times. Spatial locality 1.
class SequentialStream final : public BufferedStream {
 public:
  SequentialStream(sim::Bytes memory, std::uint64_t passes, sim::Time cpu_per_ref)
      : BufferedStream{memory}, passes_{passes}, cpu_{cpu_per_ref} {}

  [[nodiscard]] const char* name() const override { return "sequential"; }

 protected:
  void refill() override {
    if (pass_ >= passes_) {
      return;
    }
    const std::uint64_t end = std::min(pos_ + kRefillBatch, heap_pages());
    for (; pos_ < end; ++pos_) {
      emit(heap_begin() + pos_, cpu_);
    }
    if (pos_ >= heap_pages()) {
      pos_ = 0;
      ++pass_;
    }
  }

 private:
  std::uint64_t passes_;
  sim::Time cpu_;
  std::uint64_t pass_{0};
  std::uint64_t pos_{0};
};

// Uniformly random page touches. Spatial locality ~0.
class UniformRandomStream final : public BufferedStream {
 public:
  UniformRandomStream(sim::Bytes memory, std::uint64_t touches, sim::Time cpu_per_ref,
                      std::uint64_t seed = 0x853C49E6748FEA9BULL)
      : BufferedStream{memory}, touches_{touches}, cpu_{cpu_per_ref}, rng_{seed} {}

  [[nodiscard]] const char* name() const override { return "random"; }

 protected:
  void refill() override {
    const std::uint64_t end = std::min(done_ + kRefillBatch, touches_);
    for (; done_ < end; ++done_) {
      emit(heap_begin() + rng_.uniform(heap_pages()), cpu_);
    }
  }

 private:
  std::uint64_t touches_;
  sim::Time cpu_;
  sim::Rng rng_;
  std::uint64_t done_{0};
};

// `cursors` interleaved sequential walks, each over an equal slice of the
// heap: the fault stream exhibits stride-`cursors` patterns.
class InterleavedStream final : public BufferedStream {
 public:
  InterleavedStream(sim::Bytes memory, std::uint64_t cursors, sim::Time cpu_per_ref)
      : BufferedStream{memory}, cursors_{cursors == 0 ? 1 : cursors}, cpu_{cpu_per_ref} {
    slice_ = heap_pages() / cursors_;
  }

  [[nodiscard]] const char* name() const override { return "interleaved"; }

 protected:
  void refill() override {
    if (pos_ >= slice_) {
      return;
    }
    // At least one full round per refill, however many cursors there are.
    const std::uint64_t rounds = std::max<std::uint64_t>(1, kRefillBatch / cursors_);
    const std::uint64_t end = std::min(pos_ + rounds, slice_);
    for (; pos_ < end; ++pos_) {
      for (std::uint64_t k = 0; k < cursors_; ++k) {
        emit(heap_begin() + k * slice_ + pos_, cpu_);
      }
    }
  }

 private:
  std::uint64_t cursors_;
  sim::Time cpu_;
  std::uint64_t slice_{0};
  std::uint64_t pos_{0};
};

// Repeatedly touches a small hot set (temporal locality), with occasional
// excursions to cold pages. The hot set is the first `hot_pages` heap pages;
// throws std::invalid_argument unless 0 < hot_pages <= heap pages (with room
// left for cold pages when cold_fraction > 0) and cold_fraction is in [0, 1].
//
// The generator of the cluster workloads, so it keeps no reference buffer:
// each reference is drawn from the RNG when next() asks for it, and only
// the aux touches due before it wait in a three-entry array.
class HotColdStream final : public WorkloadStream {
 public:
  HotColdStream(sim::Bytes memory, std::uint64_t hot_pages, std::uint64_t touches,
                double cold_fraction, sim::Time cpu_per_ref,
                std::uint64_t seed = 0xDA942042E4DD58B5ULL)
      : WorkloadStream{memory},
        rng_{seed},
        touches_{touches},
        hot_pages_{hot_pages},
        cold_fraction_{cold_fraction},
        cpu_{cpu_per_ref} {
    if (!(cold_fraction >= 0.0 && cold_fraction <= 1.0)) {
      throw std::invalid_argument("HotColdStream: cold_fraction must be in [0, 1]");
    }
    if (hot_pages == 0 || hot_pages > heap_pages()) {
      throw std::invalid_argument("HotColdStream: hot_pages must be in [1, heap pages]");
    }
    if (hot_pages == heap_pages() && cold_fraction > 0.0) {
      throw std::invalid_argument("HotColdStream: no cold pages left for cold_fraction > 0");
    }
  }

  [[nodiscard]] const char* name() const override { return "hotcold"; }

  [[nodiscard]] std::optional<proc::Ref> next() override {
    if (owed_head_ < owed_end_) {
      count_emit();
      return owed_[owed_head_++];
    }
    if (done_ == touches_) {
      return std::nullopt;
    }
    ++done_;
    mem::PageId page = heap_begin();
    if (rng_.uniform_real() < cold_fraction_) {
      page += hot_pages_ + rng_.uniform(heap_pages() - hot_pages_);
    } else {
      page += rng_.uniform(hot_pages_);
    }
    const proc::Ref ref{page, cpu_, proc::Ref::Kind::Memory};
    owed_head_ = 0;
    owed_end_ = 0;
    aux_touches([this](const proc::Ref& aux) { owed_[owed_end_++] = aux; });
    count_emit();
    if (owed_end_ == 0) {
      return ref;
    }
    owed_[owed_end_++] = ref;
    return owed_[owed_head_++];
  }

 private:
  sim::Rng rng_;
  std::uint64_t done_{0};
  std::uint64_t touches_;
  std::uint64_t hot_pages_;
  double cold_fraction_;
  sim::Time cpu_;
  std::uint8_t owed_head_{0};
  std::uint8_t owed_end_{0};
  std::array<proc::Ref, 3> owed_{};  // aux touches due, then the reference they precede
};

// An interactive-style stream: bursts of memory work separated by system
// calls (I/O). Exercises the home-dependency syscall redirection.
class InteractiveStream final : public BufferedStream {
 public:
  InteractiveStream(sim::Bytes memory, std::uint64_t bursts, std::uint64_t pages_per_burst,
                    std::uint64_t syscalls_per_burst, sim::Time cpu_per_ref)
      : BufferedStream{memory},
        bursts_{bursts},
        pages_per_burst_{pages_per_burst},
        syscalls_per_burst_{syscalls_per_burst},
        cpu_{cpu_per_ref} {}

  [[nodiscard]] const char* name() const override { return "interactive"; }

 protected:
  void refill() override {
    if (burst_ >= bursts_) {
      return;
    }
    for (std::uint64_t i = 0; i < pages_per_burst_; ++i) {
      emit(heap_begin() + (cursor_++ % heap_pages()), cpu_);
    }
    for (std::uint64_t s = 0; s < syscalls_per_burst_; ++s) {
      emit_syscall(cpu_);
    }
    ++burst_;
  }

 private:
  std::uint64_t bursts_;
  std::uint64_t pages_per_burst_;
  std::uint64_t syscalls_per_burst_;
  sim::Time cpu_;
  std::uint64_t burst_{0};
  std::uint64_t cursor_{0};
};

}  // namespace ampom::workload
