#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "models/pretrained.hpp"
#include "simd/dispatch.hpp"

namespace perfbench {

namespace {

/// Shortest round-trip decimal form of `v` (all its digits, no padding).
std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    if (ec != std::errc()) throw std::runtime_error("number formatting failed");
    return {buf, end};
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

}  // namespace

bool Result::correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
}

std::string Result::to_json() const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) os << ", ";
        os << quoted(metrics[i].name) << ": {\"value\": " << number(metrics[i].value)
           << ", \"unit\": " << quoted(metrics[i].unit) << "}";
    }
    os << "}}";
    return os.str();
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

int Tracer::begin(std::string_view name, int parent, std::uint64_t request) {
    if (!enabled_) return -1;
    const Clock::time_point now = Clock::now();
    std::lock_guard lock(mu_);
    spans_.push_back({std::string(name), parent, request, now, now, true});
    return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
    if (!enabled_ || id < 0) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard lock(mu_);
    Rec& r = spans_.at(static_cast<std::size_t>(id));
    r.stop = now;
    r.open = false;
}

int Tracer::record(std::string_view name, Clock::time_point start, Clock::time_point stop,
                   int parent, std::uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard lock(mu_);
    spans_.push_back({std::string(name), parent, request, start, stop, false});
    return static_cast<int>(spans_.size() - 1);
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
    std::lock_guard lock(mu_);
    std::vector<double> out;
    for (const Rec& r : spans_) {
        if (!r.open && r.name == name) out.push_back(ms_between(r.start, r.stop));
    }
    return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
    std::lock_guard lock(mu_);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Rec& r = spans_[i];
        if (r.open) continue;
        const double ts = std::chrono::duration<double, std::micro>(r.start - origin_).count();
        const double dur = std::chrono::duration<double, std::micro>(r.stop - r.start).count();
        out << (first ? "" : ",") << "{\"name\":" << quoted(r.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (r.request % 64)
            << ",\"ts\":" << number(ts) << ",\"dur\":" << number(dur)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
            << ",\"request\":" << r.request << "}}";
        first = false;
    }
    out << "]}\n";
}

void add_trace_overhead(const PassLatency& p, Result& out) {
    out.add("trace.overhead_ms", p.traced_ms - p.untraced_ms, "ms");
    out.add("trace.overhead_pct",
            p.untraced_ms > 0 ? 100 * (p.traced_ms - p.untraced_ms) / p.untraced_ms : 0, "%");
    char line[160];
    std::snprintf(line, sizeof line, "tracing overhead: p50 %.3f ms untraced, %.3f ms traced",
                  p.untraced_ms, p.traced_ms);
    out.notes.emplace_back(line);
}

dronet::DetectionDataset make_frames(int size, int count, std::uint64_t seed) {
    return dronet::generate_dataset(dronet::benchmark_scene_config(size), count, seed);
}

dronet::Network load_checkpoint(int size) {
    std::optional<dronet::Network> net = dronet::load_pretrained(dronet::ModelId::kDroNet, size);
    if (!net) throw std::runtime_error("DroNet checkpoint not found (weights/DroNet.weights)");
    return std::move(*net);
}

std::vector<dronet::GroundTruth> as_truth(const dronet::Detections& dets) {
    std::vector<dronet::GroundTruth> out;
    out.reserve(dets.size());
    for (const dronet::Detection& d : dets) out.push_back({d.box, d.class_id});
    return out;
}

int nproc() {
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double peak_rss_mb(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
        }
    }
    return 0;
}

double self_peak_rss_mb() { return peak_rss_mb(static_cast<int>(::getpid())); }

std::string host_fingerprint_json(const std::string& weights_path) {
    std::string cpu = "unknown";
    {
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("model name", 0) == 0) {
                const auto colon = line.find(':');
                if (colon != std::string::npos) cpu = line.substr(colon + 2);
                break;
            }
        }
    }
    // FNV-1a over the checkpoint bytes: which weights produced the numbers.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    {
        std::ifstream in(weights_path, std::ios::binary);
        if (!in) throw std::runtime_error("cannot read checkpoint " + weights_path);
        char c;
        while (in.get(c)) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ull;
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::ostringstream os;
    os << "{\"cpu\": " << quoted(cpu) << ", \"nproc\": " << nproc()
       << ", \"simd\": " << quoted(dronet::simd::to_string(dronet::simd::active_level()))
       << ", \"compiler\": " << quoted(compiler)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"checkpoint_fnv1a64\": " << quoted(hex) << "}";
    return os.str();
}

}  // namespace perfbench
