// sim_loop.hpp — the simulated deployment the sim workloads run on. It is
// ftmp::SimHarness's discrete-event loop (same step order: deliver every
// due packet, then tick every live stack every millisecond), written here
// so the benchmark can put a span around each call into SimNetwork and the
// processor, and so events go straight to the workload's handlers instead
// of accumulating in a per-processor log.
//
// A processor is either a bare ftmp::Stack or an inline (single-shard)
// runtime::ShardedRuntime around one, driven through the runtime's
// front-thread API (ingest / tick / drain_egress / take_events). Both put
// the same bytes on the wire, so a workload may mix them without changing
// its simulated figures.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "ftmp/stack.hpp"
#include "net/sim_network.hpp"
#include "runtime/shard.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ftcorba;

class SimLoop {
 public:
  using Handler = std::function<void(TimePoint, const ftmp::Event&)>;
  using TickHook = std::function<void(TimePoint)>;

  /// How a processor is hosted.
  enum class Host : std::uint8_t { kStack, kRuntime };

  SimLoop(net::LinkModel link, std::uint64_t seed, Tracer& tracer)
      : net_(link, seed), tr_(tracer) {}

  ftmp::Stack& add(ProcessorId id, FtDomainId domain, McastAddress domain_addr,
                   const ftmp::Config& config, Host host = Host::kStack) {
    auto [it, inserted] = procs_.emplace(id, Proc{});
    if (!inserted) throw std::invalid_argument("duplicate processor id");
    Proc& p = it->second;
    p.domain = domain;
    p.domain_addr = domain_addr;
    p.config = config;
    p.host = host;
    boot(p, id);
    net_.attach(id);
    sync_subscriptions(p, id);
    return p.stack();
  }

  /// The processor's protocol stack (for a runtime host, its one shard's).
  [[nodiscard]] ftmp::Stack& stack(ProcessorId id) { return procs_.at(id).stack(); }
  [[nodiscard]] net::SimNetwork& network() { return net_; }
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Receives every upward event of `id` as it is produced.
  void set_handler(ProcessorId id, Handler h) { procs_.at(id).handler = std::move(h); }
  /// Runs after `id`'s Stack::tick at every timer tick (higher-layer timers).
  void set_tick_hook(ProcessorId id, TickHook h) { procs_.at(id).tick_hook = std::move(h); }

  void run_until(TimePoint t) {
    while (now_ < t) {
      const auto next_delivery = net_.next_delivery_time();
      TimePoint step = std::min<TimePoint>(t, next_tick_);
      if (next_delivery && *next_delivery < step) step = *next_delivery;
      now_ = std::max(now_, step);

      for (;;) {
        std::optional<net::Delivery> d;
        {
          auto s = tr_.span(Layer::kSimPop);
          d = net_.pop_due(now_);
        }
        if (!d) break;
        if (crashed_.contains(d->dest)) continue;
        auto it = procs_.find(d->dest);
        if (it == procs_.end()) continue;
        Proc& p = it->second;
        if (p.rt) {
          auto s = tr_.span(Layer::kRtIngest);
          p.rt->ingest(now_, d->datagram);
        } else {
          auto s = tr_.span(Layer::kOnDatagram);
          p.bare->on_datagram(now_, d->datagram);
        }
        tr_.units(p.rt ? Layer::kRtIngest : Layer::kOnDatagram, 1);
        flush(d->dest);
      }

      if (now_ >= next_tick_) {
        for (auto& [id, p] : procs_) {
          if (crashed_.contains(id)) continue;
          if (p.rt) {
            auto s = tr_.span(Layer::kRtTick);
            p.rt->tick(now_);
          } else {
            auto s = tr_.span(Layer::kTick);
            p.bare->tick(now_);
          }
          if (p.tick_hook) p.tick_hook(now_);
          flush(id);
        }
        next_tick_ += kTick;
      }
      if (!net_.next_delivery_time() && now_ >= t) break;
    }
    now_ = t;
  }

  /// Runs until `pred()` holds or `deadline` passes, checking once per
  /// timer tick; the predicate must be cheap (it runs every simulated tick).
  bool run_until_pred(const std::function<bool()>& pred, TimePoint deadline) {
    while (now_ < deadline) {
      if (pred()) return true;
      run_until(std::min(deadline, now_ + kTick));
    }
    return pred();
  }

  /// Transmits what `id`'s stack has queued and dispatches its events;
  /// sends the handlers make go out in the same step.
  void flush(ProcessorId id) {
    Proc& p = procs_.at(id);
    transmit(p, id);
    std::vector<ftmp::Event> events;
    if (p.rt) {
      auto s = tr_.span(Layer::kRtTakeEvents);
      events = p.rt->take_events();
    } else {
      auto s = tr_.span(Layer::kTakeEvents);
      events = p.bare->take_events();
    }
    if (p.handler && !events.empty()) {
      for (const ftmp::Event& ev : events) p.handler(now_, ev);
      transmit(p, id);
    }
    sync_subscriptions(p, id);
  }

  /// Fail-stop crash: the processor's packets vanish and it stops running.
  void crash(ProcessorId id) {
    crashed_.insert(id);
    net_.crash(id);
  }

  /// A fresh incarnation of a crashed processor; only its join-timestamp
  /// floors (durable membership metadata) survive, as in SimHarness.
  ftmp::Stack& restart(ProcessorId id) {
    Proc& p = procs_.at(id);
    if (!crashed_.contains(id)) throw std::logic_error("restart of a live processor");
    const auto floors = p.stack().join_timestamp_floors();
    boot(p, id);
    for (const auto& [group, ts] : floors) p.stack().restore_join_timestamp_floor(group, ts);
    p.handler = nullptr;
    p.tick_hook = nullptr;
    crashed_.erase(id);
    net_.revive(id);
    sync_subscriptions(p, id);
    return p.stack();
  }

 private:
  static constexpr Duration kTick = 1 * kMillisecond;  // timer granularity

  struct Proc {
    std::unique_ptr<ftmp::Stack> bare;              // Host::kStack
    std::unique_ptr<runtime::ShardedRuntime> rt;    // Host::kRuntime
    Host host = Host::kStack;
    FtDomainId domain{};
    McastAddress domain_addr{};
    ftmp::Config config{};
    Handler handler;
    TickHook tick_hook;

    ftmp::Stack& stack() { return rt ? rt->stack(0) : *bare; }
  };

  /// A fresh incarnation of `p` (stack or inline runtime).
  static void boot(Proc& p, ProcessorId id) {
    p.bare.reset();
    p.rt.reset();
    if (p.host == Host::kRuntime) {
      p.rt = std::make_unique<runtime::ShardedRuntime>(id, p.domain, p.domain_addr, p.config);
    } else {
      p.bare = std::make_unique<ftmp::Stack>(id, p.domain, p.domain_addr, p.config);
    }
  }

  void transmit(Proc& p, ProcessorId id) {
    std::vector<net::Datagram> packets;
    if (p.rt) {
      auto s = tr_.span(Layer::kRtDrainEgress);
      p.rt->drain_egress(packets);
    } else {
      auto s = tr_.span(Layer::kTakePackets);
      packets = p.bare->take_packets();
    }
    tr_.units(p.rt ? Layer::kRtDrainEgress : Layer::kTakePackets, packets.size());
    for (const net::Datagram& d : packets) {
      auto s = tr_.span(Layer::kSimSend);
      net_.send(now_, id, d);
    }
    tr_.units(Layer::kSimSend, packets.size());
  }

  void sync_subscriptions(Proc& p, ProcessorId id) {
    std::vector<McastAddress> subs;
    if (p.rt) {
      auto s = tr_.span(Layer::kRtSubscriptions);
      subs = p.rt->subscriptions();
    } else {
      auto s = tr_.span(Layer::kSubscriptions);
      subs = p.bare->subscriptions();
    }
    for (McastAddress addr : subs) net_.subscribe(id, addr);
  }

  net::SimNetwork net_;
  Tracer& tr_;
  TimePoint now_ = 0;
  TimePoint next_tick_ = kTick;
  std::map<ProcessorId, Proc> procs_;
  std::set<ProcessorId> crashed_;
};

}  // namespace perfbench
