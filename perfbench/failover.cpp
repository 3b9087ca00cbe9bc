// failover — 5 members, Lamport ordering, 1 % uniform loss, open-loop
// Poisson load of 256 B Regulars per member. Mid-run member 5 crashes;
// after a fixed outage it restarts as a fresh incarnation, is re-admitted
// (expect_join + a sponsor's add_processor) and catches up through
// ft::StateTransferManager from an application state of 1 MiB. PGMP
// (suspect, conviction, install), RMP NACK/retransmit and state transfer
// carry the load. Messages that fall due at the survivors during the outage
// are sent on schedule and timed from when they were due.
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "ft/state_transfer.hpp"
#include "sim_loop.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kMembers = 5;
constexpr std::size_t kPayload = 256;
constexpr double kRatePerMember = 250;             // messages per second
constexpr Duration kLoad = 1200 * kMillisecond;     // offered-load window
constexpr Duration kCrashAt = 400 * kMillisecond;   // into the load window
constexpr Duration kDowntime = 600 * kMillisecond;  // crash to restart
constexpr std::size_t kStateBytes = 1 << 20;
constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId conn() {
  return ConnectionId{kDomain, ObjectGroupId{1}, kDomain, ObjectGroupId{2}};
}

/// 1 MiB of application state: every applied message folds its payload
/// hash into one 8-byte slot and into a rolling order digest.
class BigState final : public ft::Checkpointable {
 public:
  BigState() : slots_(kStateBytes / 8, 0) {}

  void apply(const ftmp::DeliveredMessage& m) {
    const std::uint64_t h = ft::state_fnv1a64(m.giop_message.view());
    slots_[(h ^ m.seq) % slots_.size()] ^= h;
    digest_ = ft::state_digest_mix(digest_, m.source.raw(), m.seq, h);
  }

  [[nodiscard]] Bytes snapshot() const override {
    Bytes out((slots_.size() + 1) * 8);
    put_u64(out, 0, digest_);
    for (std::size_t i = 0; i < slots_.size(); ++i) put_u64(out, 8 * (i + 1), slots_[i]);
    return out;
  }

  void restore(BytesView snapshot) override {
    digest_ = get_u64(snapshot.data());
    for (std::size_t i = 0; i < slots_.size() && 8 * (i + 2) <= snapshot.size(); ++i) {
      slots_[i] = get_u64(snapshot.data() + 8 * (i + 1));
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  std::vector<std::uint64_t> slots_;
  std::uint64_t digest_ = 0;
};

struct Member {
  std::unique_ptr<BigState> app;
  std::unique_ptr<ft::StateTransferManager> st;
};

}  // namespace

Round failover_round(const Options& opt, Tracer& tr, bool traced) {
  Round r;
  const double setup0 = wall_s();
  net::LinkModel lan;
  lan.loss = 0.01;
  lan.delay = 100 * kMicrosecond;
  lan.jitter = 20 * kMicrosecond;
  const ftmp::Config cfg;

  SimLoop sim(lan, opt.seed, tr);
  std::vector<ProcessorId> members;
  for (int i = 1; i <= kMembers; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
  const std::vector<ProcessorId> survivors(members.begin(), members.end() - 1);
  const ProcessorId victim = members.back();
  for (ProcessorId p : members) sim.add(p, kDomain, kDomainAddr, cfg);

  // Measured-phase bookkeeping the apply callbacks update.
  TimePoint load_from = std::numeric_limits<TimePoint>::max();
  TimePoint load_to = std::numeric_limits<TimePoint>::max();
  bool measuring = false;
  DeliveryCheck check;
  GapTracker gaps;
  std::vector<double> latency_ms;
  std::uint64_t in_window = 0;
  std::map<ProcessorId, Member> state;
  bool restarted = false;
  bool readmitted = false;  // the restarted victim saw itself installed
  TimePoint caught_up_at = -1;

  auto attach = [&](ProcessorId p) {
    Member& m = state[p];
    m.app = std::make_unique<BigState>();
    BigState* app = m.app.get();
    const bool survivor = p != victim;
    m.st = std::make_unique<ft::StateTransferManager>(
        p, kGroup, sim.stack(p), cfg, *app,
        [&, app, p, survivor](TimePoint now, const ftmp::DeliveredMessage& d) {
          // The application and the checks, not the ft layer that calls them.
          auto harness = tr.span(Layer::kHarness);
          app->apply(d);
          if (!measuring) return;
          r.deliveries += 1;
          if (!survivor) return;
          const Stamp s = check.on_delivery(p, d);
          gaps.on_delivery(p, now, load_from, load_to);
          if (now >= load_from && now < load_to) {
            in_window += 1;
            latency_ms.push_back(to_ms(now - s.due));
          }
        });
    ft::StateTransferManager* st = m.st.get();
    sim.set_handler(p, [&, st, p, survivor](TimePoint now, const ftmp::Event& ev) {
      {
        auto s = tr.span(Layer::kFtOnEvent);
        st->on_event(now, ev);
      }
      if (std::holds_alternative<ftmp::DeliveredMessage>(ev)) tr.units(Layer::kFtOnEvent, 1);
      if (survivor || !restarted || caught_up_at >= 0) return;
      if (const auto* mc = std::get_if<ftmp::MembershipChanged>(&ev)) {
        const auto& view = mc->membership.members;
        readmitted = readmitted || std::find(view.begin(), view.end(), p) != view.end();
      }
      if (readmitted && st->caught_up()) caught_up_at = now;
    });
    sim.set_tick_hook(p, [&tr, st](TimePoint now) {
      auto s = tr.span(Layer::kFtTick);
      st->tick(now);
    });
  };
  for (ProcessorId p : members) attach(p);
  for (ProcessorId p : members) {
    sim.stack(p).create_group(sim.now(), kGroup, kGroupAddr, members);
  }
  sim.run_until(sim.now() + 100 * kMillisecond);
  r.setup_s = wall_s() - setup0;

  // ---- measured phase ----
  reset_process_counters();
  sim.network().reset_stats();
  tr.set_enabled(traced);
  const HostTimer timer;
  measuring = true;
  load_from = sim.now();
  load_to = load_from + kLoad;
  const TimePoint crash_at = load_from + kCrashAt;
  const TimePoint restart_at = crash_at + kDowntime;

  // Open-loop schedule: independent Poisson streams, fixed by the seed.
  Rng rng(opt.seed * 7919 + 3);
  std::vector<std::pair<TimePoint, ProcessorId>> schedule;
  for (ProcessorId p : members) {
    for (TimePoint t = load_from;;) {
      t += Duration(rng.next_exponential(double(kSecond) / kRatePerMember));
      if (t >= load_to) break;
      schedule.emplace_back(t, p);
    }
  }
  std::sort(schedule.begin(), schedule.end());

  std::vector<std::uint64_t> next_number(kMembers + 1, 0);
  std::uint64_t sent_by_survivors = 0, victim_sent_after = 0;
  bool crashed = false;
  auto victim_live = [&] { return !crashed || caught_up_at >= 0; };
  auto lifecycle = [&](TimePoint until) {
    if (!crashed && until >= crash_at) {
      sim.run_until(crash_at);
      sim.crash(victim);
      crashed = true;
    }
    if (!restarted && until >= restart_at) {
      sim.run_until(restart_at);
      sim.restart(victim);
      attach(victim);
      sim.stack(victim).expect_join(kGroup, kGroupAddr);
      if (!sim.stack(survivors.front()).add_processor(sim.now(), kGroup, victim)) {
        DeliveryCheck::fail(r, "sponsor refused to re-admit the restarted member");
        r.failed += 1;
      }
      sim.flush(survivors.front());
      restarted = true;
    }
  };
  for (const auto& [due, p] : schedule) {
    lifecycle(due);
    sim.run_until(due);
    if (p == victim && !victim_live()) continue;  // a crashed process sends nothing
    const std::uint64_t k = ++next_number[p.raw()];
    const Bytes payload = stamped_payload(due, p, k, kPayload);
    {
      auto s = tr.span(Layer::kSendRegular, request_id(p.raw(), k));
      sim.stack(p).group(kGroup)->send_regular(due, conn(), k, payload);
    }
    sim.flush(p);
    if (p != victim) {
      sent_by_survivors += 1;
    } else if (restarted) {
      victim_sent_after += 1;
    }
  }
  lifecycle(load_to);
  // Drain: survivors deliver everything; the rejoiner finishes catching up.
  const bool drained = sim.run_until_pred(
      [&] {
        if (caught_up_at < 0) return false;
        for (ProcessorId p : survivors) {
          if (check.member(p).delivered <
              sent_by_survivors + victim_sent_after) return false;
        }
        return true;
      },
      load_to + 5 * kSecond);
  sim.run_until(sim.now() + 50 * kMillisecond);  // the victim's tail reaches everyone
  timer.stop(r);
  tr.set_enabled(false);

  // ---- checks ----
  if (!drained) DeliveryCheck::fail(r, "failover run did not drain");
  // The victim's messages from before the crash are delivered by all
  // survivors or by none (virtual synchrony); the digests check which.
  const std::uint64_t expected = check.member(survivors.front()).delivered;
  if (expected < sent_by_survivors + victim_sent_after) {
    r.attempted += sent_by_survivors + victim_sent_after;
    r.failed += sent_by_survivors + victim_sent_after - expected;
  }
  check.verify(survivors, expected, r);
  const Member& ref = state[survivors.front()];
  r.attempted += 1;  // the rejoin
  for (ProcessorId p : members) {
    const Member& m = state[p];
    if (m.st->digest() != ref.st->digest() || m.st->fingerprint() != ref.st->fingerprint() ||
        m.app->digest() != ref.app->digest()) {
      r.order_ok = false;
      r.failed += 1;
      DeliveryCheck::fail(r, "member " + std::to_string(p.raw()) +
                                 " state digest differs from the survivors'");
    }
  }

  r.ops = sent_by_survivors + victim_sent_after;
  r.sim_msgs_per_s = double(in_window) / double(survivors.size()) /
                     (double(kLoad) / double(kSecond));
  r.latency_p50_ms = percentile(latency_ms, 50);
  r.latency_p99_ms = percentile(latency_ms, 99);
  r.outage_ms = to_ms(gaps.median_max_gap());
  r.join_ms = caught_up_at < 0 ? 0.0 : to_ms(caught_up_at - restart_at);

  const Registry reg;
  common_layer_counts(r, reg, double(r.ops));
  const net::WireStats& wire = sim.network().stats();
  r.layer["net.packets_per_msg"] = double(wire.packets_sent) / double(r.ops);
  r.layer["net.bytes_per_msg"] = double(wire.bytes_sent) / double(r.ops);
  return r;
}

}  // namespace perfbench
