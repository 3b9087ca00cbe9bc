// invoke — the paper's use case: active replication over one logical
// connection. Two client replicas and three server replicas, LLFT ordering,
// no batching, a 100 µs ± 20 µs LAN. kCallers callers run a closed loop of
// "deposit" invocations (CDR arguments of ~128 B) against a deterministic
// account ft::StateMachine behind ft::ActiveReplica. Both client replicas
// run the same callers, so they issue the same requests with the same
// request numbers; the servers suppress the duplicate request, the clients
// the duplicate replies. CDR/GIOP, ORB dispatch, dedup and the LLFT grant
// path carry the load.
#include <functional>
#include <limits>
#include <memory>

#include "ft/replication.hpp"
#include "orb/orb.hpp"
#include "sim_loop.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kCallers = 4;  // concurrent calls per client replica
// Calls per round. Replicas must agree on every call they issue, so the
// steady window is cut by call number, not by time: it opens when client
// replica 0 issues call kWindowFrom and closes when it issues kWindowTo.
constexpr RequestNum kCalls = 1600;
constexpr RequestNum kWindowFrom = 200;
constexpr RequestNum kWindowTo = 1400;
constexpr FtDomainId kClientDomain{1};
constexpr FtDomainId kServerDomain{2};
constexpr McastAddress kClientDomainAddr{100};
constexpr McastAddress kServerDomainAddr{101};
constexpr ProcessorGroupId kServerGroup{1};
constexpr McastAddress kServerGroupAddr{200};
const orb::ObjectKey kAccount{"account:bench"};

ConnectionId conn() {
  return ConnectionId{kClientDomain, ObjectGroupId{10}, kServerDomain, ObjectGroupId{20}};
}

/// Deterministic account: "deposit" adds the amount and returns the new
/// balance; a rolling digest over the applied amounts makes the order of
/// application comparable across replicas.
class Account final : public ft::StateMachine {
 public:
  giop::ReplyStatus apply(const std::string& operation, giop::CdrReader& in,
                          giop::CdrWriter& out) override {
    if (operation != "deposit") {
      out.string("unknown operation");
      return giop::ReplyStatus::kUserException;
    }
    const std::int64_t amount = in.longlong_();
    (void)in.string();     // memo
    (void)in.octet_seq();  // reference blob
    balance_ += amount;
    digest_ = ft::state_digest_mix(digest_, 0, applied_, std::uint64_t(amount));
    applied_ += 1;
    out.longlong_(balance_);
    return giop::ReplyStatus::kNoException;
  }
  [[nodiscard]] Bytes snapshot() const override {
    giop::CdrWriter w;
    w.longlong_(balance_);
    return w.bytes();
  }
  void restore(BytesView snapshot) override {
    giop::CdrReader r(snapshot);
    balance_ = r.longlong_();
  }
  std::int64_t balance_ = 0;
  std::uint64_t digest_ = 0;
  std::uint64_t applied_ = 0;
};

std::int64_t amount_of(std::uint64_t seed, RequestNum request) {
  return 1 + std::int64_t(sub_seed(seed, request) % 1000);
}

}  // namespace

Round invoke_round(const Options& opt, Tracer& tr, bool traced) {
  Round r;
  const double setup0 = wall_s();
  ftmp::Config cfg;
  cfg.ordering_mode = ftmp::OrderingMode::kLlft;
  net::LinkModel lan;  // 100 µs + uniform [0, 20 µs] jitter
  lan.delay = 100 * kMicrosecond;
  lan.jitter = 20 * kMicrosecond;

  SimLoop sim(lan, opt.seed, tr);
  const std::vector<ProcessorId> servers{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  const std::vector<ProcessorId> clients{ProcessorId{10}, ProcessorId{11}};
  std::vector<ProcessorId> all = servers;
  all.insert(all.end(), clients.begin(), clients.end());
  for (ProcessorId p : servers) sim.add(p, kServerDomain, kServerDomainAddr, cfg);
  for (ProcessorId p : clients) sim.add(p, kClientDomain, kClientDomainAddr, cfg);
  for (ProcessorId p : servers) {
    sim.stack(p).create_group(sim.now(), kServerGroup, kServerGroupAddr, servers);
    sim.stack(p).serve_connections(kServerGroup);
  }
  std::map<ProcessorId, std::unique_ptr<orb::Orb>> orbs;
  std::map<ProcessorId, std::shared_ptr<Account>> accounts;
  for (ProcessorId p : all) orbs[p] = std::make_unique<orb::Orb>(sim.stack(p));
  for (ProcessorId p : servers) {
    accounts[p] = std::make_shared<Account>();
    orbs[p]->activate(kAccount, std::make_shared<ft::ActiveReplica>(accounts[p]));
  }

  // The measured-phase state the handlers update.
  TimePoint window_from = std::numeric_limits<TimePoint>::max();
  TimePoint window_to = std::numeric_limits<TimePoint>::max();
  bool measuring = false;
  GapTracker gaps;
  std::uint64_t in_window = 0;
  // The serial order, as client replica 0 sees the requests delivered:
  // expected[n] is the balance request n must reply with.
  std::vector<std::int64_t> expected(1, 0);
  std::vector<bool> ordered(1, false);
  std::int64_t model_balance = 0;
  std::map<ProcessorId, TimePoint> connected_at;

  for (ProcessorId p : all) {
    orb::Orb* o = orbs[p].get();
    const bool model = p == clients.front();
    sim.set_handler(p, [&, o, p, model](TimePoint now, const ftmp::Event& ev) {
      if (std::holds_alternative<ftmp::ConnectionEstablished>(ev)) {
        connected_at.emplace(p, now);
        return;
      }
      const auto* d = std::get_if<ftmp::DeliveredMessage>(&ev);
      if (!d) return;
      if (measuring) {
        r.deliveries += 1;
        gaps.on_delivery(p, now, window_from, window_to);
      }
      const bool is_request =
          std::find(clients.begin(), clients.end(), d->source) != clients.end();
      if (model && is_request) {
        const RequestNum n = d->request_num;
        if (n >= ordered.size()) {
          ordered.resize(n + 1, false);
          expected.resize(n + 1, 0);
        }
        if (!ordered[n]) {
          ordered[n] = true;
          model_balance += amount_of(opt.seed, n);
          expected[n] = model_balance;
        }
      }
      auto s = tr.span(Layer::kOrbOnEvent, d->request_num);
      o->on_event(now, ev);
    });
  }

  // Clients open the logical connection: they join the server group (§7).
  const TimePoint join_start = sim.now();
  for (ProcessorId p : clients) {
    sim.stack(p).open_connection(sim.now(), conn(), kServerDomainAddr, clients);
    sim.flush(p);
  }
  if (!sim.run_until_pred([&] { return connected_at.size() == clients.size(); },
                          sim.now() + 5 * kSecond)) {
    DeliveryCheck::fail(r, "connection not established");
    r.failed += 1;
    return r;
  }
  TimePoint joined = join_start;
  for (const auto& [p, t] : connected_at) joined = std::max(joined, t);
  r.join_ms = to_ms(joined - join_start);
  sim.run_until(sim.now() + 50 * kMillisecond);
  r.setup_s = wall_s() - setup0;

  // ---- measured phase ----
  reset_process_counters();
  sim.network().reset_stats();
  tr.set_enabled(traced);
  const HostTimer timer;
  measuring = true;
  std::uint64_t window_deliveries = 0;  // deliveries before the window opened
  const Bytes blob(96, 0x5A);
  std::vector<double> latency_ms;
  struct Replica {
    ProcessorId id;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::vector<std::int64_t> balances;  // reply balance per request number
  };
  std::vector<Replica> replicas(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) replicas[i].id = clients[i];
  std::uint64_t wrong_balances = 0;

  std::function<void(Replica&, TimePoint)> issue = [&](Replica& c, TimePoint now) {
    const RequestNum n = c.issued + 1;
    if (c.id == clients.front() && n == kWindowFrom) {
      window_from = now;
      window_deliveries = r.deliveries;
    }
    if (c.id == clients.front() && n == kWindowTo) {
      window_to = now;
      in_window = r.deliveries - window_deliveries;
    }
    giop::CdrWriter args;
    args.longlong_(amount_of(opt.seed, n));
    args.string("bench deposit");
    args.octet_seq(blob);
    auto on_reply = [&, n, now](const giop::Reply& reply, ByteOrder order) {
      // The caller's bookkeeping and its next call's marshalling, not the
      // ORB that delivers the reply.
      auto harness = tr.span(Layer::kHarness);
      giop::CdrReader in(reply.body, order);
      const std::int64_t balance =
          reply.status == giop::ReplyStatus::kNoException ? in.longlong_() : -1;
      if (c.balances.size() <= n) c.balances.resize(n + 1, -1);
      c.balances[n] = balance;
      const TimePoint done = sim.now();
      if (n >= kWindowFrom && n < kWindowTo) latency_ms.push_back(to_ms(done - now));
      c.completed += 1;
      if (c.issued < kCalls) issue(c, done);
    };
    std::optional<RequestNum> got;
    {
      auto s = tr.span(Layer::kOrbInvoke, n);
      got = orbs[c.id]->invoke(now, conn(), kAccount, "deposit", args, on_reply);
    }
    if (got != n) {
      wrong_balances += 1;  // numbering diverged: the replicas no longer agree
      return;
    }
    c.issued += 1;
  };
  for (Replica& c : replicas) {
    for (int i = 0; i < kCallers; ++i) issue(c, sim.now());
    sim.flush(c.id);
  }
  const bool drained = sim.run_until_pred(
      [&] {
        for (const Replica& c : replicas) {
          if (c.completed < kCalls) return false;
        }
        return true;
      },
      sim.now() + 10 * kSecond);
  sim.run_until(sim.now() + 20 * kMillisecond);  // trailing reply copies reach everyone
  timer.stop(r);
  tr.set_enabled(false);

  // ---- checks ----
  const std::uint64_t calls = replicas[0].issued;
  for (const Replica& c : replicas) {
    r.attempted += c.issued;
    r.failed += c.issued - c.completed;
    if (c.issued != calls) DeliveryCheck::fail(r, "client replicas issued different calls");
  }
  if (!drained) DeliveryCheck::fail(r, "invocations did not complete");
  // Each reply must carry the balance the serial order predicts.
  for (const Replica& c : replicas) {
    for (RequestNum n = 1; n <= c.issued; ++n) {
      if (n >= c.balances.size() || n >= expected.size() || !ordered[n] ||
          c.balances[n] != expected[n]) {
        wrong_balances += 1;
      }
    }
  }
  if (wrong_balances > 0) {
    r.failed += wrong_balances;
    r.order_ok = false;
    DeliveryCheck::fail(r, "a reply disagrees with the serial order");
  }
  const Account& ref = *accounts[servers.front()];
  for (ProcessorId p : servers) {
    const Account& a = *accounts[p];
    if (a.digest_ != ref.digest_ || a.balance_ != model_balance || a.applied_ != calls) {
      r.order_ok = false;
      r.failed += 1;
      DeliveryCheck::fail(r, "server replicas diverged");
    }
  }
  // Every processor sees both request copies and all three reply copies and
  // keeps one of each: (clients - 1) + (servers - 1) duplicates per call.
  std::uint64_t dups = 0;
  for (ProcessorId p : all) dups += orbs[p]->stats().duplicates_suppressed;
  const std::uint64_t dups_expected =
      calls * (clients.size() - 1 + servers.size() - 1) * all.size();
  if (dups != dups_expected) {
    r.failed += 1;
    DeliveryCheck::fail(r, "duplicate suppression count " + std::to_string(dups) +
                               " != " + std::to_string(dups_expected));
  }

  r.ops = calls;
  const double msgs_per_call = double(clients.size() + servers.size());
  r.sim_msgs_per_s = double(in_window) / double(all.size()) /
                     (double(window_to - window_from) / double(kSecond));
  r.latency_p50_ms = percentile(latency_ms, 50);
  r.latency_p99_ms = percentile(latency_ms, 99);
  r.outage_ms = to_ms(gaps.median_max_gap());

  const Registry reg;
  const double group_msgs = double(calls) * msgs_per_call;
  common_layer_counts(r, reg, group_msgs);
  const net::WireStats& wire = sim.network().stats();
  r.layer["net.packets_per_msg"] = double(wire.packets_sent) / group_msgs;
  r.layer["net.bytes_per_msg"] = double(wire.bytes_sent) / group_msgs;
  r.layer["orb.duplicates_suppressed_per_call"] = double(dups) / double(calls);
  return r;
}

}  // namespace perfbench
