// workloads.hpp — one function per workload; each call is one round: a
// fresh deployment is set up, driven for a fixed amount of work, drained
// and checked. Tracing is switched on for the measured phase of a round
// when `traced` is set.
#pragma once

#include "common.hpp"

namespace perfbench {

Round flood_round(const Options& opt, Tracer& tr, bool traced);
Round invoke_round(const Options& opt, Tracer& tr, bool traced);
Round failover_round(const Options& opt, Tracer& tr, bool traced);

}  // namespace perfbench
