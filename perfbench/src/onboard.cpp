// onboard_512 / onboard_512_int8: the paper's deployment. One camera in a
// closed loop; each frame is detected in this process at input 512 with every
// core on the GEMM (set_gemm_threads(nproc)). The serving and cluster layers
// are bypassed.
//
// The shipped checkpoint was trained at 192 and matches no ground truth at
// 512, so correctness is agreement with a reference: the same frames through
// fp32 with scalar kernels at 1 thread, computed in setup on its own network.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "detect/nms.hpp"
#include "eval/evaluator.hpp"
#include "fault/fault.hpp"
#include "nn/quantize.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dronet;

/// Agreement gates. A reference detection is reproduced when a detection of
/// the same class overlaps it at `iou` or more. fp32 differs from the scalar
/// reference only by FMA rounding, so boxes coincide (measured: every frame
/// of 20 seeds reproduces all of them at IoU 0.9); int8 moves boxes and drops
/// the odd one near the score threshold (measured 0.97-1.00 at IoU 0.5).
struct AgreementGate {
    float iou;
    double frame_miss_fraction;  ///< a frame fails past max(1, this * n) misses
    double aggregate_floor;      ///< run-level share of the reference reproduced
};
constexpr AgreementGate kFp32Gate{0.9f, 0.0, 0.98};
constexpr AgreementGate kInt8Gate{0.5f, 0.5, 0.9};

struct Onboard {
    int size;
    DetectionDataset frames;
    std::vector<Detections> reference;
    EvalConfig eval;
    std::optional<Network> net;
    std::unique_ptr<QuantizedNetwork> q;
};

/// detect_image_timed with a span around every public call it makes; same
/// work, decomposed so each layer's time is visible.
Detections detect_traced(Onboard& w, const Image& img, Tracer& tr, std::uint64_t req) {
    Span frame(&tr, "frame", -1, req);
    Network& net = *w.net;
    net.set_batch(1);
    Tensor input(net.input_shape());
    {
        Span s(&tr, "image.copy_to_batch", frame.id(), req);
        img.copy_to_batch(input, 0);
    }
    Detections raw;
    if (w.q) {
        {
            Span s(&tr, "quantize.forward", frame.id(), req);
            w.q->forward(input);
        }
        Span s(&tr, "quantize.decode", frame.id(), req);
        raw = w.q->decode(0);
    } else {
        // Timestamps first, spans after the pass: recording between layers
        // would let the GEMM pool's workers park and inflate the next layer.
        std::vector<Clock::time_point> marks{Clock::now()};
        const Tensor* x = &input;
        for (std::size_t i = 0; i < net.num_layers(); ++i) {
            Layer& l = net.layer(static_cast<int>(i));
            l.forward(*x, net, /*train=*/false);
            marks.push_back(Clock::now());
            x = &l.output();
        }
        const int fwd = tr.record("nn.forward", marks.front(), marks.back(), frame.id(), req);
        for (std::size_t i = 0; i < net.num_layers(); ++i) {
            char name[32];
            std::snprintf(name, sizeof name, "nn.l%02zu", i);
            tr.record(name, marks[i], marks[i + 1], fwd, req);
        }
        Span s(&tr, "detect.decode", frame.id(), req);
        raw = net.region()->decode(0);
    }
    Span s(&tr, "detect.nms", frame.id(), req);
    return postprocess(raw, w.eval.score_threshold, w.eval.nms_threshold);
}

Detections detect(Onboard& w, const Image& img) {
    return detect_image_timed(*w.net, img, w.eval, nullptr, w.q.get());
}

}  // namespace

Result run_onboard(const Options& opt, bool int8, Tracer& tracer) {
    Result out;
    Onboard w{opt.onboard_size(), {}, {}, {}, std::nullopt, nullptr};
    const int n_frames = opt.tiny ? 4 : 24;
    const int setup_reps = opt.tiny ? 2 : 5;
    const AgreementGate gate = int8 ? kInt8Gate : kFp32Gate;
    w.frames = make_frames(w.size, n_frames, opt.seed);

    {
        simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
        set_gemm_threads(1);
        Network ref = load_checkpoint(w.size);
        for (std::size_t i = 0; i < w.frames.size(); ++i) {
            w.reference.push_back(detect_image(ref, w.frames.image(i), w.eval));
        }
    }
    set_gemm_threads(nproc());

    // setup_s: checkpoint load (+ int8 calibration on the first frames), the
    // median of several set-ups; the last one is kept for the run.
    std::vector<Image> calib;
    for (std::size_t i = 0; i < w.frames.size() && i < 4; ++i) calib.push_back(w.frames.image(i));
    std::vector<double> setup_times;
    for (int r = 0; r < setup_reps; ++r) {
        w.q.reset();
        w.net.reset();
        const Clock::time_point t0 = Clock::now();
        w.net.emplace(load_checkpoint(w.size));
        if (int8) {
            const Int8Calibration c = calibrate_int8(*w.net, calib, w.eval);
            w.q = std::make_unique<QuantizedNetwork>(*w.net, c);
            w.net->set_batch(1);
        }
        setup_times.push_back(seconds_since(t0));
    }

    const int warmup = opt.tiny ? 1 : 3;
    for (int i = 0; i < warmup; ++i) (void)detect(w, w.frames.image(0));

    std::optional<fault::ScopedFaultPlan> faults;
    if (!opt.fault_plan.empty()) faults.emplace(opt.fault_plan);

    // Closed loop: the next frame starts when the previous one is done. A
    // traced run alternates blocks of untraced and traced frames over part of
    // the budget, so the two latency populations see the same conditions.
    std::vector<double> latencies;
    std::vector<double> traced_latencies;
    DetectionMetrics vs_ref;
    std::uint64_t reproduced = 0;
    std::uint64_t reference_total = 0;
    double busy_s = 0;
    const double budget_s = opt.trace ? opt.seconds * 0.35 : opt.seconds;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; seconds_since(start) < budget_s; ++i) {
        const std::size_t f = i % w.frames.size();
        const bool traced = opt.trace && (i / 4) % 2 == 1;
        ++out.attempted;
        const Clock::time_point t0 = Clock::now();
        Detections dets;
        try {
            dets = traced ? detect_traced(w, w.frames.image(f), tracer, i) : detect(w, w.frames.image(f));
        } catch (const std::exception&) {
            busy_s += seconds_since(t0);
            ++out.failed;
            continue;
        }
        const Clock::time_point t1 = Clock::now();
        busy_s += std::chrono::duration<double>(t1 - t0).count();
        (traced ? traced_latencies : latencies).push_back(ms_between(t0, t1));

        const std::vector<GroundTruth> truth = as_truth(w.reference[f]);
        const DetectionMetrics agree = match_detections(dets, truth, gate.iou);
        reproduced += static_cast<std::uint64_t>(agree.true_positives);
        reference_total += truth.size();
        vs_ref += match_detections(dets, truth, 0.5f);
        const double missed = static_cast<double>(truth.size()) - agree.true_positives;
        const double allowed = std::max(1.0, std::floor(gate.frame_miss_fraction *
                                                        static_cast<double>(truth.size())));
        if (missed > allowed) ++out.failed;
    }
    faults.reset();

    const double agreement = reference_total > 0 ? static_cast<double>(reproduced) /
                                                       static_cast<double>(reference_total)
                                                 : 1.0;
    out.check("every frame detected and agreeing with the reference", out.failed == 0);
    out.check("agreement >= floor", agreement >= gate.aggregate_floor);
    out.check("reference has detections", reference_total > 0);

    if (opt.trace) {
        char line[160];
        std::snprintf(line, sizeof line, "onboard: %zu untraced and %zu traced frames",
                      latencies.size(), traced_latencies.size());
        out.notes.emplace_back(line);
        add_trace_overhead({percentile(latencies, 50), percentile(traced_latencies, 50)}, out);
        (void)fleet_layer_metrics(opt, tracer, out);
        return out;
    }

    const double completed = static_cast<double>(latencies.size());
    const double fps = busy_s > 0 ? completed / busy_s : 0;
    const double ok_ratio =
        out.attempted > 0
            ? static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted)
            : 0;
    out.add("setup_s", median(setup_times), "s");
    out.add("latency_p50_ms", percentile(latencies, 50), "ms");
    out.add("latency_p90_ms", percentile(latencies, 90), "ms");
    out.add("latency_p99_ms", percentile(latencies, 99), "ms");
    out.add("fps", fps, "1/s");
    out.add("max_rate_fps", fps, "1/s");
    out.add("ok_ratio", ok_ratio, "ratio");
    out.add("agreement", agreement, "ratio");
    out.add("sensitivity", vs_ref.sensitivity(), "ratio");
    out.add("precision", vs_ref.precision(), "ratio");
    out.add("iou", vs_ref.avg_iou(), "ratio");
    out.add("peak_rss_mb", self_peak_rss_mb(), "MB");

    char line[160];
    std::snprintf(line, sizeof line,
                  "onboard: %zu frames at %dx%d, %d GEMM threads, %s, reference detections %llu",
                  latencies.size(), w.size, w.size, gemm_threads(), int8 ? "int8" : "fp32",
                  static_cast<unsigned long long>(reference_total));
    out.notes.emplace_back(line);
    return out;
}

}  // namespace perfbench
