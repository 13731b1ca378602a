// ground_station: 8 independent camera streams of 512x512 frames arrive in an
// open loop at fixed absolute rates and go through the cluster Router to one
// serve_worker process per core (1 service thread, 1 GEMM thread, micro-
// batches of up to 4, net input 192 where the checkpoint is accurate).
//
// The only workload that uses cluster (dispatch, wire, processes), serve
// (queueing, batching) and the 512->192 resize in image. Every request is
// timed from when it was due, so a stalled generator charges its lateness to
// the requests it delayed; the lateness itself is reported as gen.lag.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>

#include "cluster/protocol.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "eval/evaluator.hpp"
#include "fault/fault.hpp"
#include "io/fdio.hpp"
#include "serve/detection_service.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dronet;
using serve::ServeResult;
using serve::ServeStatus;

constexpr int kStreams = 8;
constexpr double kSloP99Ms = 100;
constexpr double kNominalFps = 8 * 30;  ///< 8 cameras at 30 fps
/// A step whose generator falls this far behind has a growing backlog; it
/// stops sending.
constexpr double kMaxLagMs = 2000;
constexpr auto kFutureTimeout = std::chrono::seconds(30);

/// Fixed absolute rates from light load to past capacity, with the share of
/// --seconds each step runs for. This fleet moves every 3 MB frame over the
/// wire; on the 4-core reference host it saturated anywhere from about 300
/// to 580 fps as the host's load drifted over minutes, so a step inside that
/// band would meet or miss the SLO by chance and max_rate_fps would flip
/// between runs. The ladder therefore steps from the nominal rate straight
/// past the band. The nominal step gets the largest share so its p99 rests
/// on well over ten samples beyond it.
struct LadderStep {
    double rate_fps;
    double share;
};
constexpr LadderStep kLadder[] = {{120, 0.15}, {kNominalFps, 0.60}, {720, 0.25}};

// Accuracy floors against ground truth at 192 (measured over 20 seeds of 32
// frames: sensitivity 0.83-0.95, precision 0.92-0.99, IoU 0.71-0.75) and
// agreement with the in-process scalar reference at IoU 0.9.
constexpr double kSensitivityFloor = 0.75;
constexpr double kPrecisionFloor = 0.85;
constexpr double kIouFloor = 0.60;
constexpr double kAgreementFloor = 0.98;
constexpr float kAgreementIou = 0.9f;

struct FleetSpec {
    int frame_size;
    int net_size;
    int workers;
    double rate_scale;  ///< tiny runs scale the ladder down
};

FleetSpec fleet_spec(const Options& opt) {
    if (opt.tiny) return {256, kTinySize, 2, 0.25};
    return {512, 192, nproc(), 1.0};
}

/// Inputs shared by every pass: seeded frames with ground truth and the
/// reference detections of the same frames at the net size.
struct Inputs {
    DetectionDataset frames;
    std::vector<Detections> reference;
    std::size_t request_bytes = 0;  ///< one detect request on the wire
};

Inputs make_inputs(const Options& opt, const FleetSpec& spec) {
    Inputs in;
    in.frames = make_frames(spec.frame_size, opt.tiny ? 16 : 64, opt.seed);
    simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
    const int threads = gemm_threads();
    set_gemm_threads(1);
    Network ref = load_checkpoint(spec.net_size);
    for (std::size_t i = 0; i < in.frames.size(); ++i) {
        in.reference.push_back(detect_image(ref, in.frames.image(i)));
    }
    set_gemm_threads(threads);
    in.request_bytes = sizeof(cluster::FrameHeader) +
                       cluster::encode_detect_request(in.frames.image(0)).size();
    return in;
}

/// A Router over `spec.workers` serve_worker processes. With a fault plan
/// armed the plan must act on the workers' forwards, so the workers run as
/// threads of this process behind the same socket protocol (adopted fds).
class Fleet {
  public:
    Fleet(const Options& opt, const FleetSpec& spec) {
        cluster::RouterConfig rc;
        const std::vector<std::string> args = {
            "--workers", "1", "--size", std::to_string(spec.net_size), "--batch", "4",
            "--gemm-threads", "1"};
        if (opt.fault_plan.empty()) {
            rc.worker_argv = {opt.worker_bin};
            rc.worker_argv.insert(rc.worker_argv.end(), args.begin(), args.end());
            rc.workers = spec.workers;
        } else {
            set_gemm_threads(1);
            for (int w = 0; w < spec.workers; ++w) {
                int sv[2];
                if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
                    throw std::system_error(errno, std::generic_category(), "socketpair");
                }
                auto worker = std::make_unique<InProcess>();
                worker->fd = io::UniqueFd(sv[1]);
                Network net = load_checkpoint(spec.net_size);
                serve::ServiceConfig sc;
                sc.workers = 1;
                sc.max_batch = 4;
                worker->service = std::make_unique<serve::DetectionService>(net, sc);
                inproc_.push_back(std::move(worker));
                rc.adopt_fds.push_back(sv[0]);
            }
        }
        router_ = std::make_unique<cluster::Router>(rc);
        // Serving threads start only once the router owns the other ends, so
        // a failed construction leaves no thread to join.
        for (auto& w : inproc_) {
            w->thread = std::thread([p = w.get()] {
                try {
                    cluster::WorkerServer server(*p->service, p->fd.get());
                    (void)server.run();
                } catch (const std::exception& e) {
                    // The router sees the connection drop and fails the
                    // worker's frames; say why here.
                    std::fprintf(stderr, "perfbench: in-process worker: %s\n", e.what());
                }
            });
        }
    }

    ~Fleet() {
        router_->stop();
        for (auto& w : inproc_) {
            w->thread.join();
            w->service->stop();
        }
    }

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    [[nodiscard]] cluster::Router& router() { return *router_; }

    /// Sum of the worker processes' peak RSS (in-process workers are already
    /// inside this process's own peak).
    [[nodiscard]] double workers_peak_rss_mb() const {
        double mb = 0;
        for (std::size_t s = 0; s < router_->slots(); ++s) {
            const pid_t pid = router_->worker_pid(s);
            if (pid > 0) mb += peak_rss_mb(static_cast<int>(pid));
        }
        return mb;
    }

  private:
    struct InProcess {
        io::UniqueFd fd;
        std::unique_ptr<serve::DetectionService> service;
        std::thread thread;
    };
    std::vector<std::unique_ptr<InProcess>> inproc_;
    std::unique_ptr<cluster::Router> router_;
};

/// Submits a few frames per worker and waits for all of them: worker start-up
/// (model load, first-touch allocation) finishes before anything is timed.
void warm(cluster::Router& router, const Inputs& in, int per_worker) {
    std::vector<std::future<ServeResult>> f;
    for (std::size_t i = 0; i < router.slots() * static_cast<std::size_t>(per_worker); ++i) {
        f.push_back(router.submit(0, in.frames.image(i % in.frames.size())));
    }
    for (auto& x : f) {
        if (x.wait_for(kFutureTimeout) != std::future_status::ready || x.get().status != ServeStatus::kOk) {
            throw std::runtime_error("ground_station: fleet warm-up frame failed");
        }
    }
}

/// One resolved request.
struct Outcome {
    std::size_t frame = 0;
    Clock::time_point due;
    bool ok = false;
    double latency_ms = 0;  ///< resolved - due
    double lag_ms = 0;      ///< sent - due
    double submit_us = 0;   ///< time inside Router::submit
    double overhead_ms = 0; ///< client-side latency minus the worker's own total
    std::size_t response_bytes = 0;
    Detections detections;
};

struct StepResult {
    double rate_fps = 0;
    std::vector<Outcome> outcomes;
    double span_s = 0;     ///< step start -> last resolution
    bool overloaded = false;

    [[nodiscard]] std::uint64_t ok() const {
        return static_cast<std::uint64_t>(
            std::count_if(outcomes.begin(), outcomes.end(), [](const Outcome& o) { return o.ok; }));
    }
    [[nodiscard]] std::vector<double> ok_latencies() const {
        std::vector<double> v;
        for (const Outcome& o : outcomes) {
            if (o.ok) v.push_back(o.latency_ms);
        }
        return v;
    }
    [[nodiscard]] double ok_ratio() const {
        return outcomes.empty() ? 0 : static_cast<double>(ok()) / static_cast<double>(outcomes.size());
    }
    [[nodiscard]] double goodput_fps() const {
        return span_s > 0 ? static_cast<double>(ok()) / span_s : 0;
    }
    /// p99 with every failed request counted as missing the limit.
    [[nodiscard]] double slo_p99_ms() const {
        std::vector<double> v;
        for (const Outcome& o : outcomes) v.push_back(o.ok ? o.latency_ms : 1e300);
        return percentile(v, 99);
    }
    /// Later requests waiting much longer than early ones (outcomes are in
    /// due order): the queue grows.
    [[nodiscard]] bool backlog_growing() const {
        if (overloaded) return true;
        const std::vector<double> v = ok_latencies();
        if (v.size() < 8) return false;
        const std::size_t q = v.size() / 4;
        const double first = median({v.begin(), v.begin() + static_cast<std::ptrdiff_t>(q)});
        const double last = median({v.end() - static_cast<std::ptrdiff_t>(q), v.end()});
        return last > 2 * first + 10;
    }
    [[nodiscard]] bool meets_slo() const {
        return !outcomes.empty() && slo_p99_ms() <= kSloP99Ms && ok_ratio() >= 0.99 &&
               !backlog_growing();
    }
};

/// Runs one open-loop step: kStreams camera threads each send at rate/kStreams
/// on a fixed schedule; one collector per stream resolves its futures in order.
StepResult run_step(cluster::Router& router, const Inputs& in, double rate_fps,
                    double duration_s, Tracer* tracer) {
    StepResult step;
    step.rate_fps = rate_fps;
    const double period_s = kStreams / rate_fps;
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

    struct Pending {
        std::size_t frame;
        Clock::time_point due, sent, returned;
        std::future<ServeResult> result;
    };
    struct Stream {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Pending> queue;
        bool done = false;
        std::vector<Outcome> outcomes;
    };
    std::vector<Stream> streams(kStreams);
    std::atomic<bool> overloaded{false};
    Clock::time_point last_resolution = start;
    std::mutex last_mu;

    auto camera = [&](int s) {
        Stream& st = streams[static_cast<std::size_t>(s)];
        for (std::uint64_t k = 0;; ++k) {
            const double offset_s = (static_cast<double>(k) + static_cast<double>(s) / kStreams) * period_s;
            if (offset_s >= duration_s || overloaded.load()) break;
            const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(offset_s));
            const std::size_t frame = (static_cast<std::size_t>(s) * 5 + k) % in.frames.size();
            Image img = in.frames.image(frame);  // the camera's frame buffer
            std::this_thread::sleep_until(due);
            const Clock::time_point sent = Clock::now();
            if (ms_between(due, sent) > kMaxLagMs) {
                overloaded = true;
                break;
            }
            std::future<ServeResult> f = router.submit(static_cast<std::uint64_t>(s), std::move(img));
            const Clock::time_point returned = Clock::now();
            std::lock_guard lock(st.mu);
            st.queue.push_back({frame, due, sent, returned, std::move(f)});
            st.cv.notify_one();
        }
        std::lock_guard lock(st.mu);
        st.done = true;
        st.cv.notify_one();
    };
    auto collector = [&](int s) {
        Stream& st = streams[static_cast<std::size_t>(s)];
        for (;;) {
            Pending p;
            {
                std::unique_lock lock(st.mu);
                st.cv.wait(lock, [&] { return st.done || !st.queue.empty(); });
                if (st.queue.empty()) return;
                p = std::move(st.queue.front());
                st.queue.pop_front();
            }
            Outcome o;
            o.frame = p.frame;
            o.due = p.due;
            o.lag_ms = ms_between(p.due, p.sent);
            o.submit_us = 1000 * ms_between(p.sent, p.returned);
            if (p.result.wait_for(kFutureTimeout) == std::future_status::ready) {
                ServeResult r = p.result.get();
                const Clock::time_point done = Clock::now();
                o.ok = r.status == ServeStatus::kOk;
                o.latency_ms = ms_between(p.due, done);
                o.overhead_ms = ms_between(p.sent, done) - r.timings.total_ms();
                cluster::WireDetectResult wire{r.status, 0, r.timings, r.frame.detections, r.error};
                o.response_bytes = sizeof(cluster::FrameHeader) +
                                   cluster::encode_detect_response(wire).size();
                o.detections = std::move(r.frame.detections);
                if (tracer != nullptr) {
                    const std::uint64_t req = (static_cast<std::uint64_t>(s) << 32) | st.outcomes.size();
                    const int root = tracer->record("request", p.due, done, -1, req);
                    tracer->record("cluster.submit", p.sent, p.returned, root, req);
                    tracer->record("cluster.future", p.returned, done, root, req);
                }
                std::lock_guard lock(last_mu);
                last_resolution = std::max(last_resolution, done);
            }
            st.outcomes.push_back(std::move(o));
        }
    };

    std::vector<std::thread> threads;
    for (int s = 0; s < kStreams; ++s) {
        threads.emplace_back(camera, s);
        threads.emplace_back(collector, s);
    }
    for (auto& t : threads) t.join();
    for (Stream& st : streams) {
        for (Outcome& o : st.outcomes) step.outcomes.push_back(std::move(o));
    }
    std::sort(step.outcomes.begin(), step.outcomes.end(),
              [](const Outcome& a, const Outcome& b) { return a.due < b.due; });
    step.overloaded = overloaded.load();
    step.span_s = std::chrono::duration<double>(last_resolution - start).count();
    return step;
}

/// Field `key` of stage `stage` in a worker's ServeStats JSON
/// (`"<stage>":{..."<key>":V`); 0 when absent.
double json_field(const std::string& json, std::string_view stage, std::string_view key) {
    std::string open;
    open.append("\"").append(stage).append("\":{");
    std::size_t pos = json.find(open);
    if (pos == std::string::npos) return 0;
    std::string needle;
    needle.append("\"").append(key).append("\":");
    pos = json.find(needle, pos);
    if (pos == std::string::npos) return 0;
    return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// Mean batch size from the worker's "batch_sizes":{"1":n,"2":m,...} block.
void add_batch_sizes(const std::string& json, double& frames, double& batches) {
    std::size_t pos = json.find("\"batch_sizes\":{");
    if (pos == std::string::npos) return;
    pos += 15;
    while (pos < json.size() && json[pos] == '"') {
        char* end = nullptr;
        const double size = std::strtod(json.c_str() + pos + 1, &end);
        const double count = std::strtod(end + 2, &end);  // skip `":`
        frames += size * count;
        batches += count;
        pos = static_cast<std::size_t>(end - json.c_str());
        if (json[pos] == ',') ++pos;
    }
}

/// Accuracy against ground truth and agreement with the reference.
struct Accuracy {
    DetectionMetrics truth;
    DetectionMetrics agree;
};

Accuracy score(const std::vector<const StepResult*>& steps, const Inputs& in) {
    Accuracy a;
    for (const StepResult* s : steps) {
        for (const Outcome& o : s->outcomes) {
            if (!o.ok) continue;
            a.truth += match_detections(o.detections, in.frames.truths(o.frame), 0.5f);
            a.agree += match_detections(o.detections, as_truth(in.reference[o.frame]), kAgreementIou);
        }
    }
    return a;
}

}  // namespace

PassLatency fleet_layer_metrics(const Options& opt, Tracer& tracer, Result& out) {
    const FleetSpec spec = fleet_spec(opt);
    const Inputs in = make_inputs(opt, spec);
    Fleet fleet(opt, spec);
    warm(fleet.router(), in, 2);
    const double rate = kNominalFps * spec.rate_scale;
    const double pass_s = opt.seconds * 0.15;
    const StepResult untraced = run_step(fleet.router(), in, rate, pass_s, nullptr);
    const StepResult traced = run_step(fleet.router(), in, rate, pass_s, &tracer);
    cluster::FleetStats fs;
    {
        Span s(&tracer, "cluster.fleet_stats");
        fs = fleet.router().fleet_stats();
    }

    double weight = 0, qw50 = 0, qw99 = 0, fwd = 0, pre = 0, frames = 0, batches = 0;
    for (const cluster::WireStats& w : fs.workers) {
        const double n = static_cast<double>(w.completed);
        weight += n;
        qw50 += n * json_field(w.json, "queue_wait", "p50_ms");
        qw99 += n * json_field(w.json, "queue_wait", "p99_ms");
        fwd += n * json_field(w.json, "forward", "mean_ms");
        pre += n * json_field(w.json, "preprocess", "mean_ms");
        add_batch_sizes(w.json, frames, batches);
    }
    const double wn = weight > 0 ? weight : 1;
    out.add("serve.queue_wait_p50_ms", qw50 / wn, "ms");
    out.add("serve.queue_wait_p99_ms", qw99 / wn, "ms");
    out.add("serve.forward_ms", fwd / wn, "ms");
    out.add("serve.preprocess_ms", pre / wn, "ms");
    out.add("serve.batch_size_mean", batches > 0 ? frames / batches : 0, "frames");

    std::vector<double> submit_us, overhead, lag;
    double bytes = 0;
    for (const Outcome& o : traced.outcomes) {
        submit_us.push_back(o.submit_us);
        lag.push_back(o.lag_ms);
        if (!o.ok) continue;
        overhead.push_back(o.overhead_ms);
        bytes += static_cast<double>(in.request_bytes + o.response_bytes);
    }
    out.add("cluster.submit_us", median(submit_us), "us");
    out.add("cluster.overhead_ms", median(overhead), "ms");
    out.add("cluster.wire_mb_s", traced.span_s > 0 ? bytes / traced.span_s / 1e6 : 0, "MB/s");
    out.add("cluster.retried", static_cast<double>(fs.retried), "count");
    out.add("cluster.rejected", static_cast<double>(fs.rejected), "count");
    out.add("gen.lag_p99_ms", percentile(lag, 99), "ms");

    out.attempted += untraced.outcomes.size() + traced.outcomes.size();
    out.failed += (untraced.outcomes.size() - untraced.ok()) + (traced.outcomes.size() - traced.ok());
    out.check("fleet accounting invariant", fs.accounting_ok());
    out.check("fleet passes resolve ok", untraced.ok() == untraced.outcomes.size() &&
                                             traced.ok() == traced.outcomes.size());
    char line[200];
    std::snprintf(line, sizeof line,
                  "fleet pass at %.0f fps: p50 untraced %.3f ms (%zu), traced %.3f ms (%zu)", rate,
                  percentile(untraced.ok_latencies(), 50), untraced.outcomes.size(),
                  percentile(traced.ok_latencies(), 50), traced.outcomes.size());
    out.notes.emplace_back(line);
    return {percentile(untraced.ok_latencies(), 50), percentile(traced.ok_latencies(), 50)};
}

Result run_ground_station(const Options& opt, Tracer& tracer) {
    Result out;
    const FleetSpec spec = fleet_spec(opt);

    if (opt.trace) {
        add_trace_overhead(fleet_layer_metrics(opt, tracer, out), out);
        return out;
    }

    const Inputs in = make_inputs(opt, spec);
    // setup_s: spawn the fleet until every worker has answered warm frames;
    // the median of several set-ups, the last fleet kept for the run.
    std::vector<double> setup_times;
    std::unique_ptr<Fleet> fleet;
    for (int r = 0; r < (opt.tiny ? 2 : 5); ++r) {
        fleet.reset();
        const Clock::time_point t0 = Clock::now();
        fleet = std::make_unique<Fleet>(opt, spec);
        warm(fleet->router(), in, 1);
        setup_times.push_back(seconds_since(t0));
    }
    (void)run_step(fleet->router(), in, kNominalFps * spec.rate_scale, opt.tiny ? 0.3 : 1.0,
                   nullptr);  // warm-up at the nominal rate, not reported

    std::optional<fault::ScopedFaultPlan> faults;
    if (!opt.fault_plan.empty()) faults.emplace(opt.fault_plan);

    std::vector<StepResult> steps;
    for (const LadderStep& l : kLadder) {
        steps.push_back(run_step(fleet->router(), in, l.rate_fps * spec.rate_scale,
                                 opt.seconds * l.share, nullptr));
    }
    faults.reset();
    const cluster::FleetStats fs = fleet->router().fleet_stats();
    const double rss = self_peak_rss_mb() + fleet->workers_peak_rss_mb();
    fleet.reset();

    const StepResult& nominal = steps.at(1);
    double max_rate = 0;
    std::vector<const StepResult*> all;
    for (const StepResult& s : steps) {
        all.push_back(&s);
        out.attempted += s.outcomes.size();
        out.failed += s.outcomes.size() - s.ok();
        if (s.meets_slo()) max_rate = s.goodput_fps();
        std::vector<double> lag;
        for (const Outcome& o : s.outcomes) lag.push_back(o.lag_ms);
        char line[200];
        std::snprintf(line, sizeof line,
                      "step %4.0f fps: sent %5zu ok %5llu p50 %8.3f p99 %9.3f ms goodput %7.2f "
                      "lag_p99 %7.3f ms %s",
                      s.rate_fps, s.outcomes.size(), static_cast<unsigned long long>(s.ok()),
                      percentile(s.ok_latencies(), 50), s.slo_p99_ms(), s.goodput_fps(),
                      percentile(lag, 99), s.meets_slo() ? "meets SLO" : "misses SLO");
        out.notes.emplace_back(line);
    }
    const Accuracy acc = score(all, in);
    const std::vector<double> lat = nominal.ok_latencies();
    out.add("setup_s", median(setup_times), "s");
    out.add("latency_p50_ms", percentile(lat, 50), "ms");
    out.add("latency_p90_ms", percentile(lat, 90), "ms");
    out.add("latency_p99_ms", percentile(lat, 99), "ms");
    out.add("fps", nominal.goodput_fps(), "1/s");
    out.add("max_rate_fps", max_rate, "1/s");
    out.add("ok_ratio",
            out.attempted > 0 ? static_cast<double>(out.attempted - out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0,
            "ratio");
    out.add("agreement", acc.agree.sensitivity(), "ratio");
    out.add("sensitivity", acc.truth.sensitivity(), "ratio");
    out.add("precision", acc.truth.precision(), "ratio");
    out.add("iou", acc.truth.avg_iou(), "ratio");
    out.add("peak_rss_mb", rss, "MB");

    out.check("every request resolved ok", out.failed == 0);
    out.check("fleet accounting invariant", fs.accounting_ok());
    out.check("sensitivity >= floor", acc.truth.sensitivity() >= kSensitivityFloor);
    out.check("precision >= floor", acc.truth.precision() >= kPrecisionFloor);
    out.check("iou >= floor", acc.truth.avg_iou() >= kIouFloor);
    out.check("agreement with the reference >= floor", acc.agree.sensitivity() >= kAgreementFloor);
    return out;
}

}  // namespace perfbench
