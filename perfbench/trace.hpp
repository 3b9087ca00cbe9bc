// trace.hpp — spans the benchmark records around its own calls into the
// library's public API (name, start, end, parent, request id). Self time
// is a span's duration minus the time its child spans cover; the traced
// run turns self times into the per-layer metrics. When tracing is off a
// span is one predictable branch, so untraced runs measure the program.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// The public calls the benchmark times, one per layer boundary.
enum class Layer : std::uint8_t {
  kSimSend,          // net::SimNetwork::send
  kSimPop,           // net::SimNetwork::pop_due
  kOnDatagram,       // ftmp::Stack::on_datagram
  kTakePackets,      // ftmp::Stack::take_packets
  kTakeEvents,       // ftmp::Stack::take_events
  kTick,             // ftmp::Stack::tick
  kSubscriptions,    // ftmp::Stack::subscriptions
  kSendRegular,      // ftmp::GroupSession::send_regular
  kOrbInvoke,        // orb::Orb::invoke
  kOrbOnEvent,       // orb::Orb::on_event
  kFtOnEvent,        // ft::StateTransferManager::on_event
  kFtTick,           // ft::StateTransferManager::tick
  kRtIngest,         // runtime::ShardedRuntime::ingest
  kRtDrainEgress,    // runtime::ShardedRuntime::drain_egress
  kRtTakeEvents,     // runtime::ShardedRuntime::take_events
  kRtTick,           // runtime::ShardedRuntime::tick
  kRtSubscriptions,  // runtime::ShardedRuntime::subscriptions
  kHarness,          // the benchmark's own work inside library callbacks
  kCount,
};

inline const char* layer_name(Layer l) {
  static constexpr const char* kNames[] = {
      "simnet.send",        "simnet.pop_due",    "stack.on_datagram",
      "stack.take_packets", "stack.take_events", "stack.tick",
      "stack.subscriptions", "session.send_regular", "orb.invoke",
      "orb.on_event",       "ft.on_event",       "ft.tick",
      "runtime.ingest",     "runtime.drain_egress", "runtime.take_events",
      "runtime.tick",       "runtime.subscriptions", "harness"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(Layer::kCount));
  return kNames[static_cast<std::size_t>(l)];
}

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
  /// Spans kept for the written trace; aggregates cover every span.
  static constexpr std::size_t kMaxLogged = 200000;

  struct Span {
    Layer layer{};
    std::int32_t parent = -1;  // index into the log, -1 for a top-level span
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t request = 0;  // (source << 32 | message number) or request number
  };

  /// RAII span; inert when the tracer is off.
  class Scope {
   public:
    Scope(Tracer& t, Layer l, std::uint64_t request)
        : t_(t.on_ ? &t : nullptr) {
      if (t_) t_->open(l, request);
    }
    ~Scope() {
      if (t_) t_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  [[nodiscard]] Scope span(Layer l, std::uint64_t request = 0) {
    return Scope(*this, l, request);
  }

  void set_enabled(bool on) { on_ = on; }

  /// Work units a layer call handled (datagrams, messages...), counted only
  /// while tracing so they pair with the self times.
  void units(Layer l, std::uint64_t n) {
    if (on_) units_[static_cast<std::size_t>(l)] += n;
  }

  [[nodiscard]] std::int64_t self_ns(Layer l) const {
    return self_ns_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t calls(Layer l) const {
    return calls_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t units(Layer l) const {
    return units_[static_cast<std::size_t>(l)];
  }
  /// Self nanoseconds per unit (per call when no units were counted).
  [[nodiscard]] double ns_per_unit(Layer l) const {
    const std::uint64_t u = units(l) ? units(l) : calls(l);
    return u ? double(self_ns(l)) / double(u) : 0.0;
  }
  /// Time inside top-level spans: the event-loop time the spans cover.
  [[nodiscard]] std::int64_t covered_ns() const { return top_ns_; }

  /// Writes the retained spans as CSV (name,start_ns,end_ns,parent,request).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("name,start_ns,end_ns,parent,request\n", f);
    const std::int64_t base = log_.empty() ? 0 : log_.front().start_ns;
    for (const Span& s : log_) {
      std::fprintf(f, "%s,%lld,%lld,%d,%llu\n", layer_name(s.layer),
                   static_cast<long long>(s.start_ns - base),
                   static_cast<long long>(s.end_ns - base), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    Layer layer{};
    std::int32_t index = -1;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  void open(Layer l, std::uint64_t request) {
    Open o;
    o.layer = l;
    o.start_ns = host_now_ns();
    if (log_.size() < kMaxLogged) {
      o.index = static_cast<std::int32_t>(log_.size());
      const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
      log_.push_back(Span{l, parent, o.start_ns, 0, request});
    }
    stack_.push_back(o);
  }

  void close() {
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t end = host_now_ns();
    const std::int64_t dur = end - o.start_ns;
    const auto i = static_cast<std::size_t>(o.layer);
    self_ns_[i] += dur - o.child_ns;
    calls_[i] += 1;
    if (stack_.empty()) {
      top_ns_ += dur;
    } else {
      stack_.back().child_ns += dur;
    }
    if (o.index >= 0) log_[static_cast<std::size_t>(o.index)].end_ns = end;
  }

  bool on_ = false;
  std::vector<Open> stack_;
  std::vector<Span> log_;
  std::array<std::int64_t, kLayers> self_ns_{};
  std::array<std::uint64_t, kLayers> calls_{};
  std::array<std::uint64_t, kLayers> units_{};
  std::int64_t top_ns_ = 0;
};

}  // namespace perfbench
