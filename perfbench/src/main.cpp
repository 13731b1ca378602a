// dronet_perfbench — the DroNet benchmark harness (perfbench/README.md).
//
//   dronet_perfbench --workload onboard_512|onboard_512_int8|ground_station
//                    --seed N --seconds S --trace 0|1 --root DIR --worker-bin PATH
//                    [--trace-out FILE] [--fault-plan PLAN] [--tiny]
//
// Prints a `host` fingerprint line, one line per check and per note, and as
// its last stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exits 1 when a correctness check fails, 2 on bad usage or
// an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") opt.workload = next();
        else if (a == "--seed") opt.seed = std::stoull(next());
        else if (a == "--seconds") opt.seconds = std::stod(next());
        else if (a == "--trace") opt.trace = std::stoi(next()) != 0;
        else if (a == "--root") opt.root = next();
        else if (a == "--worker-bin") opt.worker_bin = next();
        else if (a == "--trace-out") opt.trace_out = next();
        else if (a == "--fault-plan") opt.fault_plan = next();
        else if (a == "--tiny") opt.tiny = true;
        else throw std::invalid_argument("unknown flag " + a);
    }
    if (opt.workload != "onboard_512" && opt.workload != "onboard_512_int8" &&
        opt.workload != "ground_station") {
        throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
    }
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    if (opt.worker_bin.empty()) throw std::invalid_argument("--worker-bin is required");
    return opt;
}

int run(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    // serve_worker processes locate the checkpoint the same way.
    const std::string weights_dir = opt.root + "/weights";
    ::setenv("DRONET_WEIGHTS_DIR", weights_dir.c_str(), 1);
    std::printf("host %s\n", host_fingerprint_json(weights_dir + "/DroNet.weights").c_str());
    std::fflush(stdout);

    Tracer tracer(opt.trace);
    Result r = opt.workload == "ground_station"
                   ? run_ground_station(opt, tracer)
                   : run_onboard(opt, opt.workload == "onboard_512_int8", tracer);
    if (opt.trace) {
        layer_sweep(opt, tracer, r);
        if (!opt.trace_out.empty()) tracer.write_chrome_json(opt.trace_out);
    }

    for (const std::string& n : r.notes) std::printf("note %s\n", n.c_str());
    for (const auto& [what, ok] : r.checks) {
        std::printf("check %s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    }
    std::printf("%s\n", r.to_json().c_str());
    return r.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dronet_perfbench: %s\n", e.what());
        return 2;
    }
}
