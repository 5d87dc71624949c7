#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "lpp_bench.hpp"

namespace lppbench {

// Keep in step with BENCHMARK.json; lpp_bench --selftest checks it.
const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"throughput_maccess_s", "Maccess/s", "higher", 0.25},
        {"op_ns_per_access_gmean", "ns/access", "lower", 0.25},
        {"setup_s", "s", "lower", 0.25},
        {"peak_rss_mb", "MiB", "lower", 0.25},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"workloads.generate.ns_per_access", "ns/access", "lower", 0},
        {"trace.record.ns_per_access", "ns/access", "lower", 0},
        {"trace.encode.ns_per_access", "ns/access", "lower", 0},
        {"trace.compression_ratio", "ratio", "higher", 0},
        {"trace.decode.ns_per_access", "ns/access", "lower", 0},
        {"trace.decode.mb_per_s", "MB/s", "higher", 0},
        {"cache.stack_sim.ns_per_access", "ns/access", "lower", 0},
        {"trace.share", "fraction", "lower", 0},
        {"reuse.share", "fraction", "lower", 0},
        {"wavelet.share", "fraction", "lower", 0},
        {"phase.share", "fraction", "lower", 0},
        {"grammar.share", "fraction", "lower", 0},
        {"core.share", "fraction", "lower", 0},
        {"unattributed_share", "fraction", "lower", 0},
        {"trace_overhead_pct", "%", "lower", 0},
    };
    return specs;
}

bool
validMetricName(std::string_view name)
{
    return !name.empty() &&
           std::all_of(name.begin(), name.end(), [](char c) {
               return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
           });
}

int
tailPercentile(size_t samples)
{
    int tail = 50;
    for (int p : {75, 90, 95, 99}) {
        auto at = static_cast<size_t>(
            std::ceil(double(samples) * double(p) / 100.0));
        if (samples >= at + 10)
            tail = p;
    }
    return tail;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = p / 100.0 * double(values.size() - 1);
    auto lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x", c);
            out += esc;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace lppbench
