// The traced per-layer sweep: spans around the public calls of nn, tensor,
// quantize, image and detect at the DroNet@512 shapes. It runs the same on
// every workload, so a layer metric means the same thing in every traced
// result; each metric's doc in perfbench/README.md names the end-to-end
// metric and workload it should move.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>

#include "detect/nms.hpp"
#include "eval/evaluator.hpp"
#include "image/resize.hpp"
#include "nn/quantize.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_i8.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dronet;

/// nn.lNN.* spans must cover the Network::forward they decompose to within
/// this fraction; more means time outside any layer, less a broken split.
constexpr double kCoverageTolerance = 0.10;

std::string layer_name(const char* prefix, int i, const char* suffix) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s.l%02d%s", prefix, i, suffix);
    return buf;
}

const char* kind_name(LayerKind k) {
    switch (k) {
        case LayerKind::kConvolutional: return "conv";
        case LayerKind::kMaxPool: return "maxpool";
        case LayerKind::kRegion: return "region";
        default: return "other";
    }
}

/// Runs `fn` once untimed, then `reps` times inside spans named `span`;
/// returns the median duration in ms.
double timed(Tracer& tr, const std::string& span, int reps, const std::function<void()>& fn) {
    fn();
    for (int r = 0; r < reps; ++r) {
        Span s(&tr, span);
        fn();
    }
    return median(tr.durations_ms(span));
}

struct ConvShape {
    int index;
    int m, n, k;  ///< GEMM: filters x out_hw, fan-in
    bool im2col;  ///< false for 1x1/s1 convs, which use the input as the col matrix
    ConvGeometry geo;
};

std::vector<ConvShape> conv_shapes(const Network& net) {
    std::vector<ConvShape> out;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        const Layer& l = net.layer(static_cast<int>(i));
        if (l.kind() != LayerKind::kConvolutional) continue;
        const auto& conv = static_cast<const ConvolutionalLayer&>(l);
        const ConvConfig& c = conv.config();
        const Shape& in = l.input_shape();
        ConvGeometry geo{in.c, in.h, in.w, c.ksize, c.stride, c.pad};
        out.push_back({static_cast<int>(i), c.filters, geo.col_cols(), geo.col_rows(),
                       !(c.ksize == 1 && c.stride == 1 && c.pad == 0), geo});
    }
    return out;
}

/// Leaves every layer's output holding the activations of `frames` image 0.
void sweep_nn(Network& net, const DetectionDataset& frames, int reps, Tracer& tr, Result& out) {
    net.set_batch(1);
    Tensor input(net.input_shape());
    const int layers = static_cast<int>(net.num_layers());

    frames.image(0).copy_to_batch(input, 0);
    // Alternate whole Network::forward calls with the per-layer loop, so the
    // coverage ratio compares passes made under the same conditions.
    set_gemm_threads(nproc());
    (void)net.forward(input);
    std::vector<double> pass_sums;
    for (int r = 0; r < reps; ++r) {
        {
            Span s(&tr, "sweep.nn.forward");
            (void)net.forward(input);
        }
        // Timestamps first, spans after the pass: recording between layers
        // would let the GEMM pool's workers park and inflate the next layer.
        std::vector<Clock::time_point> marks{Clock::now()};
        const Tensor* x = &input;
        for (int i = 0; i < layers; ++i) {
            Layer& l = net.layer(i);
            l.forward(*x, net, /*train=*/false);
            marks.push_back(Clock::now());
            x = &l.output();
        }
        for (int i = 0; i < layers; ++i) tr.record(layer_name("sweep.nn", i, ""), marks[i], marks[i + 1]);
        const double sum = ms_between(marks.front(), marks.back());
        pass_sums.push_back(sum);
    }
    const double forward_ms = median(tr.durations_ms("sweep.nn.forward"));
    double conv = 0, pool = 0, region = 0;
    for (int i = 0; i < layers; ++i) {
        const Layer& l = net.layer(i);
        const double ms = median(tr.durations_ms(layer_name("sweep.nn", i, "")));
        const std::string kind = kind_name(l.kind());
        out.add(layer_name("nn", i, ("." + kind + "_ms").c_str()), ms, "ms");
        if (l.kind() == LayerKind::kConvolutional) {
            conv += ms;
            out.add(layer_name("nn", i, ".conv_gflops"),
                    ms > 0 ? static_cast<double>(l.flops()) / (ms * 1e6) : 0, "GFLOP/s");
        } else if (l.kind() == LayerKind::kMaxPool) {
            pool += ms;
        } else if (l.kind() == LayerKind::kRegion) {
            region += ms;
        }
    }
    const double coverage = forward_ms > 0 ? median(pass_sums) / forward_ms : 0;
    out.add("nn.forward_ms", forward_ms, "ms");
    out.add("nn.conv_ms", conv, "ms");
    out.add("nn.maxpool_ms", pool, "ms");
    out.add("nn.region_ms", region, "ms");
    out.add("nn.span_coverage", coverage, "ratio");
    out.check("nn.lNN spans sum to nn.forward_ms within 10%",
              std::abs(coverage - 1) <= kCoverageTolerance);

    set_gemm_threads(1);
    out.add("nn.forward_t1_ms",
            timed(tr, "sweep.nn.forward_t1", reps, [&] { (void)net.forward(input); }), "ms");
    set_gemm_threads(nproc());

    // Region decode and NMS on real outputs of several frames.
    std::vector<double> candidates;
    for (std::size_t f = frames.size(); f-- > 0;) {
        frames.image(f).copy_to_batch(input, 0);
        (void)net.forward(input);
        Detections raw;
        {
            Span s(&tr, "sweep.detect.decode");
            raw = net.region()->decode(0);
        }
        {
            Span s(&tr, "sweep.detect.nms");
            (void)postprocess(raw, EvalConfig{}.score_threshold, EvalConfig{}.nms_threshold);
        }
        candidates.push_back(
            static_cast<double>(filter_by_score(raw, EvalConfig{}.score_threshold).size()));
    }
    out.add("detect.decode_ms", median(tr.durations_ms("sweep.detect.decode")), "ms");
    out.add("detect.nms_ms", median(tr.durations_ms("sweep.detect.nms")), "ms");
    out.add("detect.candidates", median(candidates), "count");
}

void sweep_tensor(Network& net, const Tensor& frame, const std::vector<ConvShape>& shapes,
                  int reps, std::uint64_t seed, Tracer& tr, Result& out) {
    Rng rng(seed);
    for (const ConvShape& s : shapes) {
        // Real activations as the im2col source; GEMM speed does not depend
        // on values, so A/B/C are seeded noise of the layer's shape.
        const float* im = s.index == 0 ? frame.data() : net.layer(s.index - 1).output().data();
        std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
        std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
        std::vector<float> c(static_cast<std::size_t>(s.m) * s.n);
        for (float& v : a) v = rng.uniform(-1, 1);
        for (float& v : b) v = rng.uniform(0, 1);
        auto run_gemm = [&] {
            gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n, 0.0f,
                 c.data(), s.n);
        };
        const double flop = 2.0 * s.m * s.n * s.k;
        set_gemm_threads(1);
        const double t1 = timed(tr, layer_name("sweep.tensor.gemm", s.index, ".t1"), reps, run_gemm);
        set_gemm_threads(nproc());
        const double tn = timed(tr, layer_name("sweep.tensor.gemm", s.index, ".tN"), reps, run_gemm);
        out.add(layer_name("tensor.gemm", s.index, "_gflops_t1"), flop / (t1 * 1e6), "GFLOP/s");
        out.add(layer_name("tensor.gemm", s.index, "_gflops_tN"), flop / (tn * 1e6), "GFLOP/s");
        out.add(layer_name("tensor.gemm", s.index, "_scaling"), t1 / tn, "x");

        if (s.im2col) {
            const double ms = timed(tr, layer_name("sweep.tensor.im2col", s.index, ""), reps,
                                    [&] { im2col(im, s.geo, b.data()); });
            out.add(layer_name("tensor.im2col", s.index, "_ms"), ms, "ms");
            // Computed bytes: the input read once plus the col matrix written.
            const double bytes = 4.0 * (static_cast<double>(s.geo.channels) * s.geo.height *
                                            s.geo.width +
                                        static_cast<double>(s.k) * s.n);
            out.add(layer_name("tensor.im2col", s.index, "_mb"), bytes / 1e6, "MB");
        }

        std::vector<std::int8_t> a8(a.size()), b8(b.size());
        std::vector<std::int32_t> c32(c.size());
        for (auto& v : a8) v = static_cast<std::int8_t>(rng.uniform(-127, 127));
        for (auto& v : b8) v = static_cast<std::int8_t>(rng.uniform(-127, 127));
        auto run_i8 = [&] {
            gemm_i8(s.m, s.n, s.k, a8.data(), s.k, b8.data(), s.n, c32.data(), s.n);
        };
        set_gemm_threads(1);
        const double i1 = timed(tr, layer_name("sweep.tensor.gemm_i8", s.index, ".t1"), reps, run_i8);
        set_gemm_threads(nproc());
        const double in = timed(tr, layer_name("sweep.tensor.gemm_i8", s.index, ".tN"), reps, run_i8);
        out.add(layer_name("tensor.gemm_i8", s.index, "_gops_t1"), flop / (i1 * 1e6), "GOP/s");
        out.add(layer_name("tensor.gemm_i8", s.index, "_gops_tN"), flop / (in * 1e6), "GOP/s");
    }
}

void sweep_quantize(int size, const DetectionDataset& frames, const std::vector<ConvShape>& shapes,
                    int reps, Tracer& tr, Result& out) {
    Network net = load_checkpoint(size);
    std::vector<Image> calib;
    for (std::size_t i = 0; i < frames.size() && i < 4; ++i) calib.push_back(frames.image(i));
    const Int8Calibration c = calibrate_int8(net, calib);
    QuantizedNetwork q(net, c);
    net.set_batch(1);
    Tensor input(net.input_shape());
    frames.image(0).copy_to_batch(input, 0);
    out.add("quantize.forward_ms",
            timed(tr, "sweep.quantize.forward", reps, [&] { (void)q.forward(input); }), "ms");
    out.add("quantize.decode_ms",
            timed(tr, "sweep.quantize.decode", reps, [&] { (void)q.decode(0); }), "ms");

    // The fp32 -> int8 activation sweep each quantized conv makes over its
    // col matrix (the input itself for 1x1 convs), at the calibrated scale.
    for (std::size_t j = 0; j < shapes.size(); ++j) {
        const ConvShape& s = shapes[j];
        const std::size_t n = static_cast<std::size_t>(s.k) * s.n;
        std::vector<float> col(n);
        Rng rng(static_cast<std::uint64_t>(j) + 1);
        for (float& v : col) v = rng.uniform(0, c.max_abs.at(j));
        std::vector<std::int8_t> q8(n);
        const float scale = q.layers().at(j).input_scale;
        const double ms = timed(tr, layer_name("sweep.quantize.act_quantize", s.index, ""), reps, [&] {
            quantize_buffer(col.data(), static_cast<std::int64_t>(n), scale, q8.data());
        });
        out.add(layer_name("quantize.act_quantize", s.index, "_ms"), ms, "ms");
    }
}

}  // namespace

void layer_sweep(const Options& opt, Tracer& tr, Result& out) {
    const int size = opt.onboard_size();
    const int reps = opt.tiny ? 5 : 7;
    const DetectionDataset frames = make_frames(size, 4, opt.seed);
    Network net = load_checkpoint(size);
    sweep_nn(net, frames, reps, tr, out);
    const std::vector<ConvShape> shapes = conv_shapes(net);
    Tensor frame(net.input_shape());
    frames.image(0).copy_to_batch(frame, 0);
    sweep_tensor(net, frame, shapes, opt.tiny ? 2 : 5, opt.seed, tr, out);
    sweep_quantize(size, frames, shapes, opt.tiny ? 2 : 5, tr, out);

    // The ground-station worker's preprocess: a 512 camera frame to net 192.
    const int to = opt.tiny ? 96 : 192;
    out.add("image.resize_ms", timed(tr, "sweep.image.resize", reps, [&] {
                (void)resize_bilinear(frames.image(0), to, to);
            }), "ms");
    set_gemm_threads(nproc());
}

}  // namespace perfbench
