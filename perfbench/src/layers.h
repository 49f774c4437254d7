// In-process timings of each layer's public entry points, at the
// workload's key stream and message sizes: frame codec, broker submit,
// shared cache, balancer, latency histogram and HTTP response parser.
// Runs in the traced mode only, after the daemon has stopped.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Per-layer metric name -> value (ns per call).
std::map<std::string, double> measure_layers(const Workload& workload, uint64_t seed,
                                             const std::vector<uint64_t>& latencies_ns);

}  // namespace perfbench
