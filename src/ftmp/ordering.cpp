#include "ftmp/ordering.hpp"

#include <cstring>

#include "ftmp/llft.hpp"
#include "ftmp/romp.hpp"

namespace ftcorba::ftmp {

bool parse_ordering_mode(const char* s, OrderingMode& out) {
  if (s == nullptr) return false;
  if (std::strcmp(s, "lamport") == 0) {
    out = OrderingMode::kLamport;
    return true;
  }
  if (std::strcmp(s, "llft") == 0) {
    out = OrderingMode::kLlft;
    return true;
  }
  return false;
}

DeliveryInstruments::DeliveryInstruments() {
  ordered_delivered = metrics::counter(
      "ftmp_romp_ordered_delivered_total",
      "Messages delivered upward in total (timestamp, source) order",
      "messages", "romp");
  pending = metrics::gauge(
      "ftmp_romp_pending_messages",
      "Messages buffered awaiting total-order delivery", "messages", "romp");
  ordering_wait_ms = metrics::histogram(
      "ftmp_romp_ordering_wait_ms",
      "Wall-clock wait from source-ordered arrival to total-order delivery",
      "ms", "romp", metrics::latency_buckets_ms());
  stability_lag = metrics::histogram(
      "ftmp_romp_stability_lag_ts",
      "Delivered-vs-stable gap: message timestamp minus the stable timestamp "
      "at delivery (buffer-reclaim lag, paper section 6)",
      "timestamp", "romp", metrics::timestamp_gap_buckets());
}

void DeliveryInstruments::observe(Timestamp ts, TimePoint arrival, TimePoint now,
                                  Timestamp stable) {
  if (now > 0 && arrival > 0) ordering_wait_ms.observe(to_ms(now - arrival));
  stability_lag.observe(ts > stable ? double(ts - stable) : 0.0);
  ordered_delivered.add();
}

std::unique_ptr<DeliveryRule> make_ordering(ProcessorId self, const Config& config,
                                            Stability& stability) {
  if (config.ordering_mode == OrderingMode::kLlft) {
    return std::make_unique<LlftRule>(self, stability);
  }
  return std::make_unique<LamportRule>(stability);
}

}  // namespace ftcorba::ftmp
