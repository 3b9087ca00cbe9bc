// probe.hpp — the host-speed probe that host times are scaled by. Other
// tenants of a shared machine slow the whole of it down by up to 2x for
// minutes at a time, longer than a run; a fixed piece of work timed next to
// each round slows down with it, so a host time divided by the probe's time
// is steady across runs, and no change to the library can move the probe.
#pragma once

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The probe time host figures are scaled to: a host time t measured next
/// to a probe run of p seconds is reported as t * kProbeRefS / p, the time
/// it would take on a host where the probe takes 10 ms.
constexpr double kProbeRefS = 0.010;

/// Runs the probe in a helper process forked before the first round, so
/// the probe's memory never counts in the benchmark's peak_rss_mb (in the
/// benchmark's own heap, the allocator kept about 1.5 MB of it resident
/// under the next round). The helper runs only while the benchmark waits
/// for it, and exits when the pipes close.
class HostProbe {
 public:
  HostProbe() {
    int to[2], from[2];
    if (pipe(to) != 0 || pipe(from) != 0) throw std::runtime_error("probe: pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("probe: fork failed");
    if (pid_ == 0) {
      close(to[1]);
      close(from[0]);
      int cpu;
      while (read(to[0], &cpu, sizeof cpu) == ssize_t(sizeof cpu)) {
        if (cpu >= 0) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpu, &one);
          sched_setaffinity(0, sizeof one, &one);
        }
        const double t = run();
        if (write(from[1], &t, sizeof t) != ssize_t(sizeof t)) break;
      }
      _exit(0);
    }
    close(to[0]);
    close(from[1]);
    to_ = to[1];
    from_ = from[0];
  }
  ~HostProbe() {
    close(to_);
    close(from_);
    waitpid(pid_, nullptr, 0);
  }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Wall seconds of one probe run, on the CPU the caller is running on
  /// (the caller is blocked meanwhile, so the probe has that CPU to itself).
  double operator()() {
    const int cpu = sched_getcpu();
    double t = 0;
    if (write(to_, &cpu, sizeof cpu) != ssize_t(sizeof cpu) ||
        read(from_, &t, sizeof t) != ssize_t(sizeof t)) {
      throw std::runtime_error("probe: helper process lost");
    }
    return t;
  }

 private:
  /// A fixed mix of heap allocation, hashing, tree inserts and memset over
  /// about 1 MiB, some 10 ms long, using nothing from the library. A probe
  /// with a working set of ~150 KiB tracked flood, whose working set is the
  /// largest, only half as well.
  static double run() {
    const std::int64_t t0 = host_now_ns();
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> buffers;
    std::uint64_t x = 12345, sink = 0;
    for (int k = 0; k < 16000; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::vector<std::uint8_t>& v = buffers[x % 4096];
      v.resize(16 + (x >> 40) % 512);
      std::memset(v.data(), int(x), v.size());
      std::map<std::uint64_t, std::uint64_t> small;
      for (std::uint64_t j = 0; j < 8; ++j) small[(x >> j) & 255] = j;
      sink += small.begin()->second + v[v.size() / 2];
    }
    keep_ = sink;
    return double(host_now_ns() - t0) * 1e-9;
  }

  static inline volatile std::uint64_t keep_ = 0;  // the work stays observable
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
};

}  // namespace perfbench
