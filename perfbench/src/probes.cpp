#include "probes.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "mem/address_space.hpp"
#include "mem/region.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

Json host_facts() {
  cpu_set_t set;
  CPU_ZERO(&set);
  long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    cpus = CPU_COUNT(&set);  // what nproc prints
  }
  Json facts = Json::object();
  facts.set("nproc", static_cast<std::int64_t>(cpus));
  facts.set("l2_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  facts.set("l3_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  facts.set("compiler", std::string{"g++ "} + __VERSION__);
  facts.set("build_type", PERFBENCH_BUILD_TYPE);
  return facts;
}

// --- spans ---------------------------------------------------------------------

std::size_t SpanLog::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_s = seconds_since(origin_);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t index) {
  spans_.at(index).end_s = seconds_since(origin_);
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

Json SpanLog::to_json() const {
  Json out = Json::array();
  for (const Span& span : spans_) {
    Json s = Json::object();
    s.set("name", span.name);
    s.set("start_s", span.start_s);
    s.set("end_s", span.end_s);
    s.set("parent", span.parent);
    out.push(std::move(s));
  }
  return out;
}

// --- the timing decorator ------------------------------------------------------

namespace {

using ampom::proc::Ref;
using ampom::proc::ReferenceStream;

constexpr std::uint64_t kTimeEvery = 16;

class TimedStream final : public ReferenceStream {
 public:
  TimedStream(std::unique_ptr<ReferenceStream> inner, StreamSlot& slot,
              std::atomic<std::uint64_t>& ticket, std::size_t capture_limit,
              std::function<void()> on_end)
      : inner_{std::move(inner)},
        slot_{slot},
        ticket_{ticket},
        capture_limit_{capture_limit},
        on_end_{std::move(on_end)} {
    slot_.memory_bytes = inner_->memory_bytes();
    slot_.captured.reserve(capture_limit_);
  }

  [[nodiscard]] std::optional<Ref> next() override {
    ++calls_;
    std::optional<Ref> ref;
    if (calls_ % kTimeEvery == 0) {
      const auto start = Clock::now();
      ref = inner_->next();
      slot_.timed_ns += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
      ++slot_.timed_calls;
    } else {
      ref = inner_->next();
    }
    if (ref) {
      count_emit();
      ++slot_.emitted;
      if (ref->kind == Ref::Kind::Memory && slot_.captured.size() < capture_limit_) {
        slot_.captured.emplace_back(ticket_.fetch_add(1, std::memory_order_relaxed), ref->page);
      }
    } else if (on_end_) {
      std::exchange(on_end_, nullptr)();
    }
    return ref;
  }

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] ampom::sim::Bytes memory_bytes() const override { return inner_->memory_bytes(); }

 private:
  std::unique_ptr<ReferenceStream> inner_;
  StreamSlot& slot_;
  std::atomic<std::uint64_t>& ticket_;
  std::size_t capture_limit_;
  std::function<void()> on_end_;
  std::uint64_t calls_{0};
};

// Cost of the Clock::now() pair that brackets a timed call.
double clock_pair_ns() {
  constexpr int kPairs = 200000;
  double total = 0.0;
  for (int i = 0; i < kPairs; ++i) {
    const auto start = Clock::now();
    total += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  }
  return total / kPairs;
}

}  // namespace

StreamProbe::StreamProbe(std::size_t streams, std::size_t capture_per_stream)
    : slots_(streams), capture_per_stream_{capture_per_stream} {}

std::unique_ptr<ReferenceStream> StreamProbe::wrap(std::size_t index,
                                                   std::unique_ptr<ReferenceStream> inner,
                                                   std::function<void()> on_end) {
  return std::make_unique<TimedStream>(std::move(inner), slots_.at(index), ticket_,
                                       capture_per_stream_, std::move(on_end));
}

double StreamProbe::next_ns() const {
  std::uint64_t calls = 0;
  double ns = 0.0;
  for (const StreamSlot& slot : slots_) {
    calls += slot.timed_calls;
    ns += slot.timed_ns;
  }
  if (calls == 0) {
    return 0.0;
  }
  return ns / static_cast<double>(calls) - clock_pair_ns();
}

double StreamProbe::classify_ns() const {
  struct Access {
    std::uint64_t ticket;
    std::uint32_t space;
    ampom::mem::PageId page;
  };
  std::vector<Access> order;
  std::vector<ampom::mem::AddressSpace> spaces;
  for (const StreamSlot& slot : slots_) {
    if (slot.captured.empty()) {
      continue;
    }
    const auto space = static_cast<std::uint32_t>(spaces.size());
    spaces.emplace_back(ampom::mem::RegionLayout::for_total_bytes(slot.memory_bytes));
    spaces.back().populate_all_dirty();
    for (const auto& [ticket, page] : slot.captured) {
      order.push_back({ticket, space, page});
    }
  }
  if (order.empty()) {
    return 0.0;
  }
  std::sort(order.begin(), order.end(),
            [](const Access& a, const Access& b) { return a.ticket < b.ticket; });

  // Repeat the replay until it has run for a tenth of a second.
  std::uint64_t calls = 0;
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  do {
    for (const Access& a : order) {
      sink += static_cast<std::uint64_t>(spaces[a.space].classify(a.page));
    }
    calls += order.size();
  } while (seconds_since(start) < 0.1);
  const double elapsed = seconds_since(start);
  if (sink == ~std::uint64_t{0}) {  // keeps the loop observable
    throw std::logic_error("classify replay: impossible checksum");
  }
  return elapsed * 1e9 / static_cast<double>(calls);
}

}  // namespace perfbench
