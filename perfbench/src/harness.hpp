// Shared pieces of the DroNet benchmark harness: run options, the result
// record printed as the final JSON line, order statistics, the span recorder
// used by traced runs, and the host fingerprint.
//
// Everything here lives in the benchmark's own files: spans are recorded
// around calls into the library's public functions, never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "detect/box.hpp"
#include "eval/metrics.hpp"
#include "nn/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
    return std::chrono::duration<double>(Clock::now() - a).count();
}

/// --tiny runs the onboard workloads and the layer sweep at the checkpoint's
/// trained 192 (the smallest size with detections to check), not 512.
constexpr int kOnboardSize = 512;
constexpr int kTinySize = 192;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";       ///< repository checkout (holds weights/)
    std::string worker_bin;       ///< tools/serve_worker built from the checkout
    std::string trace_out;        ///< Chrome trace-event JSON of a traced run
    std::string fault_plan;       ///< fault::FaultPlan text, armed after warm-up
    bool tiny = false;            ///< self-test sizes: small frames, short ladder

    [[nodiscard]] int onboard_size() const noexcept { return tiny ? kTinySize : kOnboardSize; }
};

/// One named metric with its unit, in emission order.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What one run reports. `checks` are the correctness gates: any failed
/// check makes `correct` false and the run exit non-zero.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, bool>> checks;
    std::vector<std::string> notes;  ///< human lines printed before the JSON

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void check(std::string what, bool ok) { checks.emplace_back(std::move(what), ok); }
    [[nodiscard]] bool correct() const;
    /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
    [[nodiscard]] std::string to_json() const;
};

// ---- order statistics ------------------------------------------------------

/// Linear-interpolated percentile (p in [0,100]) of `v`; 0 for empty input.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
    return percentile(std::move(v), 50);
}

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder. Spans carry a name, start/end, the id of the span
/// that caused them and a request id shared by all spans of one frame. A
/// disabled tracer records nothing, so untraced passes pay one branch.
class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    /// Opens a span; returns its id (-1 when disabled).
    int begin(std::string_view name, int parent = -1, std::uint64_t request = 0);
    void end(int id);
    /// Records an already-measured interval as a finished span.
    int record(std::string_view name, Clock::time_point start, Clock::time_point stop,
               int parent = -1, std::uint64_t request = 0);

    /// Durations (ms) of every finished span named `name`, in record order.
    [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
    /// Writes every span as Chrome trace-event JSON ("X" events, us).
    void write_chrome_json(const std::string& path) const;

  private:
    struct Rec {
        std::string name;
        int parent = -1;
        std::uint64_t request = 0;
        Clock::time_point start;
        Clock::time_point stop;
        bool open = true;
    };
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Rec> spans_;
};

/// RAII span; a no-op when the tracer is null or disabled.
class Span {
  public:
    Span(Tracer* t, std::string_view name, int parent = -1, std::uint64_t request = 0)
        : t_(t != nullptr && t->enabled() ? t : nullptr),
          id_(t_ != nullptr ? t_->begin(name, parent, request) : -1) {}
    ~Span() {
        if (t_ != nullptr) t_->end(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    [[nodiscard]] int id() const noexcept { return id_; }

  private:
    Tracer* t_;
    int id_;
};

/// Median request latency of an untraced and a traced pass of equal length.
struct PassLatency {
    double untraced_ms = 0;
    double traced_ms = 0;
};

/// trace.overhead_ms / trace.overhead_pct: traced minus untraced p50.
void add_trace_overhead(const PassLatency& p, Result& out);

// ---- inputs and checks -----------------------------------------------------

/// Seeded synthetic UAV frames (the repository's benchmark scene config at
/// `size` x `size`), generated before any timing.
[[nodiscard]] dronet::DetectionDataset make_frames(int size, int count, std::uint64_t seed);

/// The shipped DroNet checkpoint at a square input `size`; throws when the
/// checkpoint is missing (a run must never fall back to random weights).
[[nodiscard]] dronet::Network load_checkpoint(int size);

/// Detections re-labelled as truth, so eqs. 1-3 (metrics.hpp) can score one
/// detector's output against another's.
[[nodiscard]] std::vector<dronet::GroundTruth> as_truth(const dronet::Detections& dets);

// ---- host ------------------------------------------------------------------

/// Host fingerprint: CPU model, nproc, SIMD level, compiler, build type and
/// the checkpoint hash. Results from different fingerprints are incomparable.
[[nodiscard]] std::string host_fingerprint_json(const std::string& weights_path);

[[nodiscard]] int nproc();
/// Peak resident set (VmHWM) of `pid` in MB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(int pid);
[[nodiscard]] double self_peak_rss_mb();

}  // namespace perfbench
