// flood — 8 members, Lamport ordering, egress batching (8 KiB budget), every
// member keeps kWindow of its own 48–80 B Regulars in flight (closed loop: a
// member sends its next message when one of its own is delivered back to
// it) over the E9 LAN: 1 Gbit/s plus 50 µs per datagram. Wire decode, RMP,
// Lamport stability, batching and buffer handling carry the load; GIOP/ORB,
// ft, PGMP and LLFT do no work in the measured phase. Members 1-4 are bare
// Stacks and members 5-8 inline runtime::ShardedRuntime hosts, so the
// runtime layer's front-thread calls are timed next to the Stack's own on
// the same load.
#include "common/rng.hpp"
#include "sim_loop.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kMembers = 8;
constexpr std::size_t kPayloadMin = 48;  // sizes drawn uniformly, 64 B on average
constexpr std::size_t kPayloadMax = 80;
constexpr std::size_t kBatchBudget = 8192;
constexpr int kWindow = 256;                     // own messages in flight per member
constexpr Duration kRamp = 2 * kMillisecond;     // flood start to steady state
constexpr Duration kMeasure = 4 * kMillisecond;  // the steady window
constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId conn() {
  return ConnectionId{kDomain, ObjectGroupId{1}, kDomain, ObjectGroupId{2}};
}

}  // namespace

Round flood_round(const Options& opt, Tracer& tr, bool traced) {
  Round r;
  const double setup0 = wall_s();
  net::LinkModel lan;
  lan.bandwidth_bps = 1e9;
  lan.per_packet_cost = 50 * kMicrosecond;
  ftmp::Config cfg;
  cfg.heartbeat_interval = 5 * kMillisecond;
  cfg.fault_timeout = 5 * kSecond;
  cfg.batch_max_datagram_bytes = kBatchBudget;
  cfg.batch_flush_us = 500;

  SimLoop sim(lan, opt.seed, tr);
  std::vector<ProcessorId> members;
  for (int i = 1; i <= kMembers; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
  for (ProcessorId p : members) {
    sim.add(p, kDomain, kDomainAddr, cfg,
            p.raw() <= kMembers / 2 ? SimLoop::Host::kStack : SimLoop::Host::kRuntime);
  }

  // Seven founders bootstrap; the eighth member joins through a sponsor.
  const std::vector<ProcessorId> founders(members.begin(), members.end() - 1);
  const ProcessorId joiner = members.back();
  for (ProcessorId p : founders) {
    sim.stack(p).create_group(sim.now(), kGroup, kGroupAddr, founders);
  }
  sim.run_until(sim.now() + 20 * kMillisecond);
  TimePoint joined_at = -1;
  sim.set_handler(joiner, [&](TimePoint now, const ftmp::Event& ev) {
    const auto* mc = std::get_if<ftmp::MembershipChanged>(&ev);
    if (mc && joined_at < 0 &&
        std::find(mc->membership.members.begin(), mc->membership.members.end(),
                  joiner) != mc->membership.members.end()) {
      joined_at = now;
    }
  });
  sim.stack(joiner).expect_join(kGroup, kGroupAddr);
  const TimePoint join_start = sim.now();
  sim.stack(founders.front()).add_processor(sim.now(), kGroup, joiner);
  sim.flush(founders.front());
  if (!sim.run_until_pred([&] { return joined_at >= 0; }, sim.now() + 5 * kSecond)) {
    DeliveryCheck::fail(r, "joiner never admitted");
    r.failed += 1;
  }
  r.join_ms = to_ms(joined_at - join_start);
  sim.run_until(sim.now() + 100 * kMillisecond);  // bounds and heartbeats settle
  r.setup_s = wall_s() - setup0;

  // ---- measured phase ----
  reset_process_counters();
  sim.network().reset_stats();
  tr.set_enabled(traced);
  const HostTimer timer;
  const TimePoint window_from = sim.now() + kRamp;
  const TimePoint window_to = window_from + kMeasure;
  DeliveryCheck check;
  GapTracker gaps;
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> next_number(kMembers + 1, 0);
  std::uint64_t sent = 0;
  std::uint64_t in_window = 0;
  Rng rng(opt.seed);

  auto send = [&](ProcessorId p, TimePoint now) {
    const std::uint64_t k = ++next_number[p.raw()];
    const std::size_t size = kPayloadMin + rng.next_below(kPayloadMax - kPayloadMin + 1);
    const Bytes payload = stamped_payload(now, p, k, size);
    {
      auto s = tr.span(Layer::kSendRegular, request_id(p.raw(), k));
      sim.stack(p).group(kGroup)->send_regular(now, conn(), k, payload);
    }
    sent += 1;
  };
  for (ProcessorId p : members) {
    sim.set_handler(p, [&, p](TimePoint now, const ftmp::Event& ev) {
      const auto* d = std::get_if<ftmp::DeliveredMessage>(&ev);
      if (!d) return;
      const Stamp s = check.on_delivery(p, *d);
      r.deliveries += 1;
      gaps.on_delivery(p, now, window_from, window_to);
      if (now >= window_from && now < window_to) {
        in_window += 1;
        latency_ms.push_back(to_ms(now - s.due));
      }
      if (d->source == p && now < window_to) send(p, now);
    });
  }
  for (ProcessorId p : members) {
    for (int i = 0; i < kWindow; ++i) send(p, sim.now());
    sim.flush(p);
  }
  sim.run_until(window_to);
  const bool drained = sim.run_until_pred(
      [&] {
        for (ProcessorId p : members) {
          if (check.member(p).delivered < sent) return false;
        }
        return true;
      },
      window_to + 5 * kSecond);
  timer.stop(r);
  tr.set_enabled(false);

  if (!drained) DeliveryCheck::fail(r, "flood did not drain");
  check.verify(members, sent, r);
  r.ops = sent;
  r.sim_msgs_per_s = double(in_window) / kMembers / (double(kMeasure) / double(kSecond));
  r.latency_p50_ms = percentile(latency_ms, 50);
  r.latency_p99_ms = percentile(latency_ms, 99);
  r.outage_ms = to_ms(gaps.median_max_gap());

  const Registry reg;
  common_layer_counts(r, reg, double(sent));
  const net::WireStats& wire = sim.network().stats();
  r.layer["net.packets_per_msg"] = double(wire.packets_sent) / double(sent);
  r.layer["net.bytes_per_msg"] = double(wire.bytes_sent) / double(sent);
  ftmp::BatchStats batch;  // registry counters: this phase only
  batch.batch_datagrams = std::uint64_t(reg.counter("ftmp_batch_datagrams_total"));
  batch.subframes = std::uint64_t(reg.counter("ftmp_batch_subframes_total"));
  batch.batch_bytes = std::uint64_t(reg.counter("ftmp_batch_bytes_total"));
  r.layer["batch.fill_ratio"] = batch.fill_ratio(kBatchBudget);
  r.layer["batch.subframes_per_datagram"] = batch.subframes_per_batch();
  return r;
}

}  // namespace perfbench
