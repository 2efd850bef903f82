#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 0.5);
}

// ---- Histograms ------------------------------------------------------

nazar::obs::Snapshot
snapshot()
{
    return nazar::obs::Registry::global().snapshot();
}

nazar::obs::HistogramSnapshot
histDelta(const nazar::obs::Snapshot &before,
          const nazar::obs::Snapshot &after, const std::string &name)
{
    auto a = after.histograms.find(name);
    if (a == after.histograms.end())
        return {};
    nazar::obs::HistogramSnapshot d = a->second;
    auto b = before.histograms.find(name);
    if (b == before.histograms.end())
        return d;
    d.count -= b->second.count;
    d.sum -= b->second.sum;
    for (size_t i = 0; i < d.buckets.size(); ++i)
        d.buckets[i] -= b->second.buckets[i];
    return d;
}

// ---- Report ----------------------------------------------------------

void
Report::endToEnd(const std::string &name, double value,
                 const std::string &unit)
{
    endToEnd_.push_back({name, Metric{value, unit}});
    if (!std::isfinite(value))
        gate(false, name + " is finite");
}

void
Report::layer(const std::string &name, double value,
              const std::string &unit)
{
    layers_.push_back({name, Metric{value, unit}});
    if (!std::isfinite(value))
        gate(false, name + " is finite");
}

void
Report::gate(bool ok, const std::string &what)
{
    std::printf("gate %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok)
        ++gateFailures_;
}

namespace {

void
printMetricsJson(const std::vector<std::pair<std::string, Report::Metric>>
                     &metrics)
{
    std::printf("\"metrics\": {");
    for (size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, m] = metrics[i];
        // JSON has no NaN/Inf; a non-finite value is reported as 0,
        // and recording it failed the run's gate.
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(), v, m.unit.c_str());
    }
    std::printf("}");
}

} // namespace

void
Report::print(bool traced) const
{
    std::printf("\nend-to-end metrics%s:\n",
                traced ? " (untraced pass of this run)" : "");
    for (const auto &[name, m] : endToEnd_)
        std::printf("  %-28s %14.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    if (traced) {
        std::printf("per-layer metrics (per workload operation):\n");
        for (const auto &[name, m] : layers_)
            std::printf("  %-28s %14.6g %s\n", name.c_str(), m.value,
                        m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    printMetricsJson(traced ? layers_ : endToEnd_);
    std::printf("}\n");
    std::fflush(stdout);
}

// ---- Per-layer table ---------------------------------------------------

double
printLayerTable(const std::string &workload, std::vector<LayerRow> &rows)
{
    std::map<std::string, double> children;
    for (const LayerRow &r : rows)
        if (!r.concurrent && !r.parent.empty())
            children[r.parent] += r.busy;
    double root_busy = 0.0, root_self = 0.0;
    for (LayerRow &r : rows) {
        r.self = r.concurrent ? r.busy : r.busy - children[r.name];
        if (r.parent.empty()) {
            root_busy = r.busy;
            root_self = r.self;
        }
    }
    std::printf("\nper-layer table, %s (per operation; 'self' = busy "
                "minus child spans; '~' rows run on other threads, their "
                "busy time summed)\n",
                workload.c_str());
    std::printf("  %-30s %12s %12s %12s %8s\n", "span", "count",
                "busy ms", "self ms", "self %");
    for (const LayerRow &r : rows) {
        int depth = 0;
        for (std::string p = r.parent; !p.empty();) {
            ++depth;
            auto it = std::find_if(rows.begin(), rows.end(),
                                   [&](const LayerRow &x) {
                                       return x.name == p;
                                   });
            p = it == rows.end() ? std::string() : it->parent;
        }
        std::string label = std::string(2 * depth, ' ') +
                            (r.concurrent ? "~" : "") + r.name;
        // A concurrent row's busy time is summed over threads or items,
        // so it has no share of the operation's wall time.
        if (r.concurrent) {
            std::printf("  %-30s %12.1f %12.3f %12s %8s\n", label.c_str(),
                        r.count, r.busy * 1e3, "", "");
            continue;
        }
        std::printf("  %-30s %12.1f %12.3f %12.3f %7.1f%%\n",
                    label.c_str(), r.count, r.busy * 1e3, r.self * 1e3,
                    root_busy > 0.0 ? 100.0 * r.self / root_busy : 0.0);
    }
    double unattributed = root_busy > 0.0 ? root_self / root_busy : 0.0;
    std::printf("  unattributed share of the operation: %.1f%%\n",
                100.0 * unattributed);
    return unattributed;
}

} // namespace perfbench
