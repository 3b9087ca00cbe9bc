// perfbench — the FTMP benchmark program. One workload per process:
//
//   perfbench --workload <flood|invoke|failover> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file>]
//
// A run repeats rounds (fresh deployment, set-up, measured phase, drain,
// checks) until `--seconds` of wall time are used; round i runs on its own
// sub-seed of --seed. The workload's first seed_rounds rounds fix the
// simulated-clock figures and the counts as their medians, so those are a
// pure function of the seed; later rounds only add host-time samples, each
// scaled by the host-speed probe runs on either side of its round. The
// last stdout line is one JSON object: correct / attempted / failed /
// metrics — the end-to-end metrics untraced, the per-layer metrics with
// `--trace 1`. The comment lines before it give each round's raw host cost,
// set-up time and probe times (for studying host noise), and
// "# workload-clock ..." repeats the seed-determined figures and counts for
// test_determinism.py.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  Round (*round)(const Options&, Tracer&, bool traced);
  // Rounds whose medians give the seed-determined figures: enough that the
  // median of the most seed-sensitive figure (failover's join_ms, invoke's
  // outage_ms) moves little from seed to seed.
  int seed_rounds;
};
constexpr Workload kWorkloads[] = {
    {"flood", flood_round, 9}, {"invoke", invoke_round, 41}, {"failover", failover_round, 201}};

/// Every per-layer metric, printed by the traced run of every workload; a
/// layer idle on a workload reports 0 there.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"simnet.ns_per_datagram", "ns"},
    {"stack.ingress_ns_per_datagram", "ns"},
    {"stack.egress_ns_per_datagram", "ns"},
    {"session.send_ns_per_msg", "ns"},
    {"stack.tick_ns_per_call", "ns"},
    {"orb.invoke_ns_per_call", "ns"},
    {"orb.on_event_ns_per_delivery", "ns"},
    {"ft.on_event_ns_per_delivery", "ns"},
    {"runtime.ingest_ns_per_datagram", "ns"},
    {"runtime.egress_ns_per_datagram", "ns"},
    {"runtime.tick_ns_per_call", "ns"},
    {"bytes.allocs_per_delivery", "count"},
    {"bytes.copied_per_delivery", "bytes"},
    {"net.packets_per_msg", "count"},
    {"net.bytes_per_msg", "bytes"},
    {"batch.fill_ratio", "ratio"},
    {"batch.subframes_per_datagram", "count"},
    {"rmp.nacks_per_1k_msgs", "count"},
    {"rmp.retransmits_per_1k_msgs", "count"},
    {"rmp.gap_repair_p99_ms", "ms"},
    {"ordering.wait_p50_ms", "ms"},
    {"ordering.wait_p99_ms", "ms"},
    {"ordering.grant_wait_p50_ms", "ms"},
    {"ordering.slot_wait_p99_ms", "ms"},
    {"ordering.grants_per_msg", "count"},
    {"pgmp.suspicions", "count"},
    {"pgmp.convictions", "count"},
    {"pgmp.install_ms", "ms"},
    {"pgmp.add_install_ms", "ms"},
    {"ft.state_bytes", "bytes"},
    {"ft.chunks_sent", "count"},
    {"ft.replayed_msgs", "count"},
    {"ft.digest_mismatches", "count"},
    {"orb.duplicates_suppressed_per_call", "count"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

template <typename F>
double median_over(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return median(std::move(v));
}

/// Medians of the seed-determined figures and counts over `rounds`.
Round clock_medians(const std::vector<Round>& rounds) {
  Round out;
  for (double Round::*f : {&Round::sim_msgs_per_s, &Round::latency_p50_ms,
                           &Round::latency_p99_ms, &Round::outage_ms, &Round::join_ms}) {
    out.*f = median_over(rounds, [f](const Round& r) { return r.*f; });
  }
  out.deliveries =
      std::uint64_t(median_over(rounds, [](const Round& r) { return double(r.deliveries); }));
  out.ops = std::uint64_t(median_over(rounds, [](const Round& r) { return double(r.ops); }));
  for (const auto& entry : rounds.front().layer) {
    const std::string& name = entry.first;
    out.layer[name] = median_over(rounds, [&name](const Round& r) {
      const auto it = r.layer.find(name);
      return it == r.layer.end() ? 0.0 : it->second;
    });
  }
  return out;
}

/// The seed-determined figures as one JSON object.
std::string clock_json(const Round& r) {
  std::string out;
  auto add = [&](const std::string& name, double v) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", out.empty() ? "" : ", ",
                  name.c_str(), v);
    out += buf;
  };
  add("sim_msgs_per_s", r.sim_msgs_per_s);
  add("sim_latency_p50_ms", r.latency_p50_ms);
  add("sim_latency_p99_ms", r.latency_p99_ms);
  add("outage_ms", r.outage_ms);
  add("join_ms", r.join_ms);
  add("deliveries", double(r.deliveries));
  add("ops", double(r.ops));
  for (const auto& [k, v] : r.layer) add(k, v);
  return "{" + out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <flood|invoke|failover> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (!workload || !(opt.seconds > 0)) return usage();

  // The traced run alternates traced and untraced rounds, so it can report
  // host figures free of tracing and the tracing overhead.
  HostProbe host_probe;
  Tracer tr;
  std::vector<Round> rounds;
  std::vector<bool> traced;
  // probe[i] runs just before round i and probe[i + 1] just after it.
  std::vector<double> probe;
  const double start = wall_s();
  bool correct = true;
  probe.push_back(host_probe());
  for (int i = 0;; ++i) {
    const bool t = opt.trace && i % 2 == 0;
    Options round_opt = opt;
    round_opt.seed = sub_seed(opt.seed, std::uint64_t(i));
    rounds.push_back(workload->round(round_opt, tr, t));
    traced.push_back(t);
    probe.push_back(host_probe());
    if (!rounds.back().error.empty()) {
      std::fprintf(stderr, "round %d: %s\n", i, rounds.back().error.c_str());
      correct = false;
      break;
    }
    const double elapsed = wall_s() - start;
    const double per_round = elapsed / double(i + 1);
    if (i + 1 >= workload->seed_rounds && elapsed + per_round / 2 >= opt.seconds) break;
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.order_ok && r.failed == 0;
  }
  if (attempted == 0) attempted = 1;
  const auto seed_rounds =
      std::min<std::ptrdiff_t>(workload->seed_rounds, std::ptrdiff_t(rounds.size()));
  const Round clock =
      clock_medians(std::vector<Round>(rounds.begin(), rounds.begin() + seed_rounds));

  // Host time, scaled by the probe runs around each round (see
  // probe.hpp) and taken as the median over rounds.
  auto host_cost = [&](bool want_traced, auto per_round) {
    std::vector<double> v;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const double scale = 2 * kProbeRefS / (probe[i] + probe[i + 1]);
      if (traced[i] == want_traced) v.push_back(per_round(rounds[i]) * scale);
    }
    return median(std::move(v));
  };
  const auto wall_per_delivery = [](const Round& r) { return r.host_s / double(r.deliveries); };
  std::vector<double> setup;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    setup.push_back(rounds[i].setup_s * kProbeRefS / probe[i]);
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup), "s"},
        {"success_share", 1.0 - double(failed) / double(attempted), "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"deliveries_per_s", 1.0 / host_cost(false, wall_per_delivery), "1/s"},
        {"calls_per_s",
         1.0 / host_cost(false, [](const Round& r) { return r.host_s / double(r.ops); }), "1/s"},
        {"host_us_per_delivery",
         host_cost(false, [](const Round& r) { return 1e6 * r.cpu_s / double(r.deliveries); }),
         "us"},
        {"sim_msgs_per_s", clock.sim_msgs_per_s, "1/s"},
        {"sim_latency_p50_ms", clock.latency_p50_ms, "ms"},
        {"sim_latency_p99_ms", clock.latency_p99_ms, "ms"},
        {"outage_ms", clock.outage_ms, "ms"},
        {"join_ms", clock.join_ms, "ms"},
    };
  } else {
    std::map<std::string, double> measured = clock.layer;
    measured["simnet.ns_per_datagram"] =
        tr.units(Layer::kSimSend)
            ? double(tr.self_ns(Layer::kSimSend) + tr.self_ns(Layer::kSimPop)) /
                  double(tr.units(Layer::kSimSend))
            : 0.0;
    measured["stack.ingress_ns_per_datagram"] = tr.ns_per_unit(Layer::kOnDatagram);
    measured["stack.egress_ns_per_datagram"] = tr.ns_per_unit(Layer::kTakePackets);
    measured["session.send_ns_per_msg"] = tr.ns_per_unit(Layer::kSendRegular);
    measured["stack.tick_ns_per_call"] = tr.ns_per_unit(Layer::kTick);
    measured["orb.invoke_ns_per_call"] = tr.ns_per_unit(Layer::kOrbInvoke);
    measured["orb.on_event_ns_per_delivery"] = tr.ns_per_unit(Layer::kOrbOnEvent);
    measured["ft.on_event_ns_per_delivery"] = tr.ns_per_unit(Layer::kFtOnEvent);
    // An inline runtime passes straight through to its Stack, so these
    // include the Stack call; their excess over stack.ingress / egress /
    // tick on the same workload is the runtime layer's own cost.
    measured["runtime.ingest_ns_per_datagram"] = tr.ns_per_unit(Layer::kRtIngest);
    measured["runtime.egress_ns_per_datagram"] = tr.ns_per_unit(Layer::kRtDrainEgress);
    measured["runtime.tick_ns_per_call"] = tr.ns_per_unit(Layer::kRtTick);
    measured["trace.overhead"] =
        host_cost(true, wall_per_delivery) / host_cost(false, wall_per_delivery) - 1.0;
    double traced_host_ns = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      if (traced[i]) traced_host_ns += rounds[i].host_s * 1e9;
    }
    // Layer time only: the benchmark's own work inside callbacks is not.
    measured["trace.coverage"] =
        double(tr.covered_ns() - tr.self_ns(Layer::kHarness)) / traced_host_ns;
    for (const LayerMetric& lm : kLayerMetrics) {
      const auto it = measured.find(lm.name);
      metrics.push_back({lm.name, it == measured.end() ? 0.0 : it->second, lm.unit});
    }
    if (!opt.trace_out.empty() && !tr.write(opt.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    }
  }

  std::printf("# rounds %zu; host us per delivery by round:", rounds.size());
  for (const Round& r : rounds) std::printf(" %.3f", 1e6 * r.cpu_s / double(r.deliveries));
  std::printf("\n# setup ms by round:");
  for (const Round& r : rounds) std::printf(" %.4f", 1e3 * r.setup_s);
  std::printf("\n# probe ms, before each round and after the last:");
  for (double p : probe) std::printf(" %.3f", 1e3 * p);
  std::printf("\n# workload-clock %s\n", clock_json(clock).c_str());
  std::string m;
  for (const Metric& x : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", x.name.c_str(), x.value, x.unit);
    m += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.c_str());
  return correct ? 0 : 1;
}
