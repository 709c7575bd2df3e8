#include "core/ampom_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace ampom::core {

AmpomPolicy::AmpomPolicy(sim::Simulator& simulator, proc::Executor& executor,
                         proc::PagingClient& client, AmpomConfig config,
                         ResourceProvider resources)
    : sim_{simulator},
      executor_{executor},
      client_{client},
      config_{config},
      resources_{std::move(resources)},
      analyzer_{config.dmax} {
  if (!resources_) {
    throw std::invalid_argument("AmpomPolicy requires a resource provider");
  }
  if (config_.window_partitions == 0) {
    throw std::invalid_argument("AmpomPolicy: window_partitions must be >= 1");
  }
  windows_.reserve(config_.window_partitions);
  for (std::size_t i = 0; i < config_.window_partitions; ++i) {
    windows_.emplace_back(config_.lookback_length);
  }
  if (config_.window_partitions > 1) {
    global_window_.emplace(config_.lookback_length);
  }
}

LookbackWindow& AmpomPolicy::partition_of(mem::PageId page) {
  if (windows_.size() == 1) {
    return windows_.front();
  }
  const std::uint64_t total = executor_.process().aspace().page_count();
  const std::uint64_t span = (total + windows_.size() - 1) / windows_.size();
  const std::size_t idx = static_cast<std::size_t>(page / span);
  return windows_[std::min(idx, windows_.size() - 1)];
}

const LookbackWindow& AmpomPolicy::window_for(mem::PageId page) const {
  return const_cast<AmpomPolicy*>(this)->partition_of(page);
}

void AmpomPolicy::on_fault(proc::Process& process, mem::PageId page, mem::AccessKind kind) {
  mem::AddressSpace& aspace = process.aspace();
  ++stats_.faults_seen;

  // 1. Pages prefetched earlier have arrived: copy them into the address
  //    space (lookaside buffer drain).
  const std::uint64_t mapped = aspace.map_all_arrived();
  if (mapped > 0) {
    executor_.charge_handler(executor_.costs().map_page * static_cast<std::int64_t>(mapped));
  }

  // 2. Record the fault (in the page's partition window, and in the global
  //    window that tracks the process-wide paging rate).
  LookbackWindow& window = partition_of(page);
  if (window.record(page, sim_.now(), executor_.recent_cpu_fraction())) {
    ++stats_.window_records;
  }
  LookbackWindow& rate_window = global_window_ ? *global_window_ : window;
  if (global_window_) {
    global_window_->record(page, sim_.now(), executor_.recent_cpu_fraction());
  }

  // 3.-5. Score, zone size, zone pages.
  const sim::Time analysis = config_.analysis_cost();
  executor_.charge_handler(analysis);
  stats_.analysis_time += analysis;

  const double score = analyzer_.score_and_streams(window, streams_);
  const ResourceEstimates res = resources_();
  ZoneInputs inputs;
  inputs.locality_score = score;
  inputs.paging_rate_hz = rate_window.paging_rate_hz();
  inputs.cpu_mean = rate_window.mean_cpu();
  inputs.cpu_next = res.expected_cpu_share;
  inputs.rtt_one_way = res.rtt_one_way;
  inputs.page_transfer = res.page_transfer;
  const std::uint64_t n = zone_size(inputs, config_);
  if (trace_) {
    trace_(inputs, n, streams_.size());
  }
  select_zone(window, streams_, n, aspace.page_count(), zone_);
  stats_.last_score = score;
  stats_.last_zone_size = n;
  stats_.zone_pages_considered += zone_.size();

  // 6. Record the pages that are "not stored locally" in the request: from
  //    here on zone_ holds only those.
  std::erase_if(zone_, [&](mem::PageId z) {
    return z == page || aspace.state(z) != mem::PageState::Remote;
  });

  // 7. Resolve the faulted page itself.
  const mem::AccessKind now_kind =
      kind == mem::AccessKind::SoftFault ? aspace.classify(page) : kind;
  switch (now_kind) {
    case mem::AccessKind::Hit: {
      // The faulted page was in the lookaside buffer and step 1 mapped it.
      send_requests(mem::kInvalidPage);
      executor_.complete_fault(page);
      return;
    }
    case mem::AccessKind::HardFault: {
      blocked_page_ = page;
      aspace.mark_in_flight(page);
      send_requests(page);
      return;  // resumes when the urgent page arrives
    }
    case mem::AccessKind::InFlightWait: {
      // Already requested as a prefetch; wait for it, but still issue the
      // new prefetches the analysis found.
      blocked_page_ = page;
      send_requests(mem::kInvalidPage);
      return;
    }
    default:
      throw std::logic_error("AmpomPolicy::on_fault: unexpected access kind");
  }
}

void AmpomPolicy::send_requests(mem::PageId urgent) {
  const bool has_urgent = urgent != mem::kInvalidPage;
  if (!has_urgent && zone_.empty()) {
    return;
  }
  mem::AddressSpace& aspace = executor_.process().aspace();
  for (const mem::PageId p : zone_) {
    aspace.mark_in_flight(p);
    ++stats_.prefetch_pages_issued;
  }
  // The urgent page (already marked InFlight by the caller) leads the batch.
  std::vector<mem::PageId> pages;
  pages.reserve(zone_.size() + (has_urgent ? 1 : 0));
  if (has_urgent) {
    pages.push_back(urgent);
  }
  pages.insert(pages.end(), zone_.begin(), zone_.end());

  const sim::Time build = executor_.costs().request_build;
  if (config_.batch_requests) {
    ++stats_.requests_sent;
    sim_.schedule_after(build, [this, batch = std::move(pages), urgent] {
      client_.request_pages(batch, urgent);
    });
    return;
  }
  // Ablation: one request per page (no batching).
  std::int64_t i = 0;
  for (const mem::PageId p : pages) {
    ++stats_.requests_sent;
    sim_.schedule_after(build * (i + 1), [this, p, urgent] {
      client_.request_pages({p}, p == urgent ? p : mem::kInvalidPage);
    });
    ++i;
  }
}

void AmpomPolicy::on_arrival(mem::PageId page, bool /*urgent*/) {
  proc::Process& process = executor_.process();
  mem::AddressSpace& aspace = process.aspace();
  aspace.mark_arrived(page);
  if (page == blocked_page_) {
    blocked_page_ = mem::kInvalidPage;
    aspace.map_arrived_page(page);
    executor_.charge_handler(executor_.costs().map_page);
    executor_.complete_fault(page);
  }
}

}  // namespace ampom::core
