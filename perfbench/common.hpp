// common.hpp — what every workload shares: the per-round result, the
// delivery checker that feeds the correctness gate, payload stamping, and
// readers for the library's metrics registry and allocation statistics.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ft/state_transfer.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ftcorba;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

/// One round: a fresh deployment set up, driven and checked. Simulated-clock
/// fields and `layer` counts depend only on the seed; host fields do not.
struct Round {
  double setup_s = 0;
  double host_s = 0;  // wall time of the measured phase
  double cpu_s = 0;   // process CPU time of the measured phase
  std::uint64_t deliveries = 0;  // ordered (message, member) deliveries
  std::uint64_t ops = 0;         // completed user operations
  // Simulated-clock figures.
  double sim_msgs_per_s = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double outage_ms = 0;
  double join_ms = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool order_ok = true;
  std::string error;  // first failure, for the log
  std::map<std::string, double> layer;  // per-layer counts and ratios
};

inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

inline double wall_s() { return double(host_now_ns()) * 1e-9; }

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the launching process, since Linux keeps it
/// across execve.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Nearest-rank-interpolated percentile, p in [0, 100].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - double(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Seed of round `i` of a run (SplitMix64 of the pair).
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + i + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Measured-phase host timer: wall and process CPU.
struct HostTimer {
  double wall0 = wall_s();
  double cpu0 = process_cpu_s();
  void stop(Round& r) const {
    r.host_s = wall_s() - wall0;
    r.cpu_s = process_cpu_s() - cpu0;
  }
};

// ---------------------------------------------------------------------------
// Payloads: bytes 0-7 carry the due time, 8-15 the source, 16-23 the
// source's message number; the rest is filler. Receivers check the stamp.
// ---------------------------------------------------------------------------

inline void put_u64(Bytes& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[at + std::size_t(i)] = std::uint8_t(v >> (56 - 8 * i));
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

constexpr std::size_t kStampBytes = 24;

inline Bytes stamped_payload(TimePoint due, ProcessorId source, std::uint64_t number,
                             std::size_t size) {
  Bytes b(std::max(size, kStampBytes), 0xA5);
  put_u64(b, 0, std::uint64_t(due));
  put_u64(b, 8, source.raw());
  put_u64(b, 16, number);
  return b;
}

struct Stamp {
  TimePoint due = 0;
  std::uint64_t source = 0;
  std::uint64_t number = 0;
};

inline bool read_stamp(const SharedBytes& payload, Stamp& out) {
  if (payload.size() < kStampBytes) return false;
  out.due = TimePoint(get_u64(payload.data()));
  out.source = get_u64(payload.data() + 8);
  out.number = get_u64(payload.data() + 16);
  return true;
}

/// Request id of a Regular in spans: (source, message number).
inline std::uint64_t request_id(std::uint32_t source, std::uint64_t number) {
  return (std::uint64_t(source) << 32) | (number & 0xffffffffu);
}

// ---------------------------------------------------------------------------
// Delivery checker: per member, a rolling order digest (the
// ft::state_digest_mix idiom), per-source FIFO numbering and a count. Equal
// digests at equal counts mean the members delivered the same messages in
// the same order; nothing is stored per message.
// ---------------------------------------------------------------------------

class DeliveryCheck {
 public:
  struct Member {
    std::uint64_t digest = 0;
    std::uint64_t delivered = 0;
    std::unordered_map<std::uint32_t, std::uint64_t> last_number;  // per source
    std::uint64_t fifo_violations = 0;
    std::uint64_t bad_stamps = 0;
  };

  /// Records one delivery of (source, seq) carrying `payload` at `member`.
  /// Returns the decoded stamp (due time) for latency bookkeeping.
  Stamp on_delivery(ProcessorId member, const ftmp::DeliveredMessage& m) {
    Member& st = members_[member.raw()];
    Stamp s;
    if (!read_stamp(m.giop_message, s) || s.source != m.source.raw() ||
        s.number != m.request_num) {
      st.bad_stamps += 1;
    }
    // Source order: each source's numbers rise (a crashed source's last
    // unstable messages may be dropped consistently, leaving a gap).
    std::uint64_t& last = st.last_number[m.source.raw()];
    if (s.number <= last) st.fifo_violations += 1;
    last = s.number;
    st.digest = ft::state_digest_mix(st.digest, m.source.raw(), m.seq, s.number);
    st.delivered += 1;
    return s;
  }

  [[nodiscard]] const Member& member(ProcessorId p) { return members_[p.raw()]; }

  /// Checks `members` delivered `expected` messages each, in one order.
  /// Adds missing deliveries and disagreeing members to `r`.
  void verify(const std::vector<ProcessorId>& members, std::uint64_t expected, Round& r) {
    const Member& ref = members_[members.front().raw()];
    for (ProcessorId p : members) {
      const Member& m = members_[p.raw()];
      r.attempted += expected;
      if (m.delivered < expected) {
        r.failed += expected - m.delivered;
        fail(r, "member " + std::to_string(p.raw()) + " delivered " +
                    std::to_string(m.delivered) + " of " + std::to_string(expected));
      }
      if (m.fifo_violations + m.bad_stamps > 0) {
        r.failed += m.fifo_violations + m.bad_stamps;
        fail(r, "member " + std::to_string(p.raw()) + " FIFO/stamp violations");
      }
      if (m.delivered == ref.delivered && m.digest != ref.digest) {
        r.order_ok = false;
        r.failed += m.delivered;
        fail(r, "total-order disagreement at member " + std::to_string(p.raw()));
      }
    }
  }

  static void fail(Round& r, const std::string& why) {
    if (r.error.empty()) r.error = why;
  }

 private:
  std::unordered_map<std::uint32_t, Member> members_;
};

/// Longest gap between consecutive deliveries inside [from, to) at each
/// member; the reported outage is the median over members of that gap, the
/// stall a typical live member sees.
class GapTracker {
 public:
  void on_delivery(ProcessorId p, TimePoint at, TimePoint from, TimePoint to) {
    Member& m = members_[p.raw()];
    if (at >= from && at < to && m.last >= from) m.max_gap = std::max(m.max_gap, at - m.last);
    m.last = at;
  }
  [[nodiscard]] Duration median_max_gap() const {
    std::vector<double> gaps;
    for (const auto& [id, m] : members_) gaps.push_back(double(m.max_gap));
    return Duration(median(std::move(gaps)));
  }

 private:
  struct Member {
    TimePoint last = -1;
    Duration max_gap = 0;
  };
  std::unordered_map<std::uint32_t, Member> members_;
};

// ---------------------------------------------------------------------------
// Metrics registry readers (process-global; reset per measured phase).
// ---------------------------------------------------------------------------

class Registry {
 public:
  Registry() {
    for (metrics::Sample& s : metrics::snapshot()) by_name_.emplace(s.name, std::move(s));
  }
  [[nodiscard]] double counter(const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? 0.0 : double(it->second.counter);
  }
  [[nodiscard]] double hist_mean(const std::string& name) const {
    auto it = by_name_.find(name);
    if (it == by_name_.end() || it->second.count == 0) return 0.0;
    return it->second.sum / double(it->second.count);
  }
  /// Quantile q in [0,1], interpolated inside the fixed bucket that holds it.
  [[nodiscard]] double hist_quantile(const std::string& name, double q) const {
    auto it = by_name_.find(name);
    if (it == by_name_.end() || it->second.count == 0) return 0.0;
    const metrics::Sample& s = it->second;
    const double target = q * double(s.count);
    double seen = 0;
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      const double in_bucket = double(s.buckets[i]);
      if (seen + in_bucket >= target && in_bucket > 0) {
        const double lo = i == 0 ? 0.0 : s.bounds[i - 1];
        const double hi = i < s.bounds.size() ? s.bounds[i] : s.bounds.back();
        return lo + (hi - lo) * (target - seen) / in_bucket;
      }
      seen += in_bucket;
    }
    return s.bounds.empty() ? 0.0 : s.bounds.back();
  }

 private:
  std::map<std::string, metrics::Sample> by_name_;
};

/// Zeroes the process-global registry and allocation statistics so the
/// counts cover exactly one measured phase.
inline void reset_process_counters() {
  metrics::reset_all();
  metrics::trace_clear();
  alloc_stats_reset();
}

/// Counts every workload reports from the registry and allocation stats.
inline void common_layer_counts(Round& r, const Registry& reg, double group_msgs) {
  const AllocStats a = alloc_stats();
  const double d = r.deliveries ? double(r.deliveries) : 1.0;
  const double m = group_msgs > 0 ? group_msgs : 1.0;
  r.layer["bytes.allocs_per_delivery"] = double(a.fresh_buffers + a.pool_hits) / d;
  r.layer["bytes.copied_per_delivery"] = double(a.copied_bytes) / d;
  r.layer["rmp.nacks_per_1k_msgs"] =
      1000.0 * reg.counter("ftmp_rmp_retransmit_requests_sent_total") / m;
  r.layer["rmp.retransmits_per_1k_msgs"] =
      1000.0 * reg.counter("ftmp_rmp_retransmit_requests_served_total") / m;
  r.layer["rmp.gap_repair_p99_ms"] = reg.hist_quantile("ftmp_rmp_gap_repair_ms", 0.99);
  r.layer["ordering.wait_p50_ms"] = reg.hist_quantile("ftmp_romp_ordering_wait_ms", 0.5);
  r.layer["ordering.wait_p99_ms"] = reg.hist_quantile("ftmp_romp_ordering_wait_ms", 0.99);
  r.layer["ordering.grant_wait_p50_ms"] =
      reg.hist_quantile("ftmp_ordering_stamp_wait_ms", 0.5);
  r.layer["ordering.slot_wait_p99_ms"] =
      reg.hist_quantile("ftmp_ordering_slot_wait_ms", 0.99);
  r.layer["ordering.grants_per_msg"] = reg.counter("ftmp_ordering_grants_total") / m;
  r.layer["pgmp.suspicions"] = reg.counter("ftmp_pgmp_suspicions_total");
  r.layer["pgmp.convictions"] = reg.counter("ftmp_pgmp_convictions_total");
  r.layer["pgmp.install_ms"] = reg.hist_mean("ftmp_pgmp_membership_install_duration_ms");
  r.layer["pgmp.add_install_ms"] = reg.hist_mean("ftmp_pgmp_add_install_duration_ms");
  r.layer["ft.state_bytes"] = reg.counter("ftmp_ft_state_chunk_bytes_sent_total");
  r.layer["ft.chunks_sent"] = reg.counter("ftmp_ft_state_chunks_sent_total");
  r.layer["ft.replayed_msgs"] = reg.counter("ftmp_ft_state_messages_replayed_total");
  r.layer["ft.digest_mismatches"] = reg.counter("ftmp_ft_state_digest_mismatches_total");
}

}  // namespace perfbench
