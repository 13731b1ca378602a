// The benchmark's workloads and the traced per-layer sweep
// (perfbench/README.md has the metric -> layer -> workload map).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// onboard_512 (int8 = false) and onboard_512_int8: one camera in a closed
/// loop, every frame detected on this process at input 512.
[[nodiscard]] Result run_onboard(const Options& opt, bool int8, Tracer& tracer);

/// ground_station: 8 open-loop camera streams through the cluster Router to
/// one serve_worker process per core, swept over a fixed rate ladder.
[[nodiscard]] Result run_ground_station(const Options& opt, Tracer& tracer);

/// Traced runs only: the serve/cluster/harness per-layer metrics from an
/// untraced and a traced pass at the ground-station nominal rate on a fresh
/// fleet.
PassLatency fleet_layer_metrics(const Options& opt, Tracer& tracer, Result& out);

/// Traced runs only: the nn/tensor/quantize/image/detect per-layer metrics
/// at the DroNet@512 shapes, identical on every workload.
void layer_sweep(const Options& opt, Tracer& tracer, Result& out);

}  // namespace perfbench
