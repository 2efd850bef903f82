/**
 * @file
 * The repository benchmark: one binary, three workloads.
 *
 *   perfbench --workload fleet|ingest|rca_log --seed N --seconds S
 *             --trace 0|1 [--smoke] [--trace-out PATH] [--work-dir DIR]
 *
 * The last line of standard output is one JSON object with `correct`,
 * `attempted`, `failed` and `metrics`: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1. Exit code 0 means
 * every correctness gate held. See README.md for the metric map.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench_util.h"
#include "common/logging.h"
#include "harness.h"
#include "obs/export.h"
#include "obs/span.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void
reportEndToEnd(Report &report, const EndToEnd &e)
{
    report.endToEnd("setup_s", e.setupS, "s");
    report.endToEnd("throughput_per_s", e.throughputPerS, "1/s");
    report.endToEnd("latency_p50_ms", e.latencyP50Ms, "ms");
    report.endToEnd("latency_tail_ms", e.latencyTailMs, "ms");
    report.endToEnd("quality_frac", e.qualityFrac, "frac");
}

void
reportLayers(Report &report, const std::map<std::string, double> &values)
{
    static const char *const kLayers[][2] = {
        {"sim.device_phase_s", "s"},
        {"nn.forward.busy_s", "s"},
        {"nn.forward.count", "count"},
        {"detect.msp.busy_s", "s"},
        {"detect.msp.count", "count"},
        {"rca.cycle_s", "s"},
        {"adapt.cycle_s", "s"},
        {"nn.backward.busy_s", "s"},
        {"nn.matmul.busy_s", "s"},
        {"nn.matmul.count", "count"},
        {"runtime.pool.busy_s", "s"},
        {"runtime.pool.batches", "count"},
        {"rca.root_causes", "count"},
        {"adapt.skipped_causes", "count"},
        {"deploy.new_versions", "count"},
        {"fleet.flagged", "count"},
        {"net.client.send_s", "s"},
        {"net.client.send.count", "count"},
        {"server.batches", "count"},
        {"server.batch_mean", "count"},
        {"server.queue_wait.p50_ms", "ms"},
        {"server.queue_wait.p99_ms", "ms"},
        {"persist.wal.sync.p50_ms", "ms"},
        {"persist.wal.sync.p99_ms", "ms"},
        {"persist.snapshot.busy_s", "s"},
        {"persist.snapshot.count", "count"},
        {"persist.checkpoint_ms", "ms"},
        {"persist.recover_ms", "ms"},
        {"persist.state_bytes", "bytes"},
        {"persist.wal_bytes", "bytes"},
        {"rca.fim.mine_ms", "ms"},
        {"rca.fim.level1_ms", "ms"},
        {"rca.fim.levelk_ms", "ms"},
        {"rca.walk_ms", "ms"},
        {"rca.reduce_ms", "ms"},
        {"rca.candidates", "count"},
        {"runtime.rca_t1_ms", "ms"},
        {"runtime.rca_speedup", "x"},
        {"load.lag_p99_ms", "ms"},
        {"load.lag_max_ms", "ms"},
        {"load.generator_ceiling_eps", "1/s"},
        {"load.max_rate_eps", "1/s"},
        {"unattributed_frac", "frac"},
        {"trace_overhead_frac", "frac"},
    };
    for (const auto &layer : kLayers) {
        auto it = values.find(layer[0]);
        report.layer(layer[0], it == values.end() ? 0.0 : it->second,
                     layer[1]);
    }
    std::string undeclared;
    for (const auto &[name, value] : values) {
        bool known = false;
        for (const auto &layer : kLayers)
            known = known || name == layer[0];
        if (!known)
            undeclared += " " + name;
    }
    report.gate(undeclared.empty(),
                "every per-layer metric is declared" + undeclared);
}

} // namespace perfbench

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet|ingest|rca_log "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--trace-out PATH] [--work-dir DIR]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--seed")
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            opts.trace = value() != "0";
        else if (arg == "--smoke")
            opts.smoke = true;
        else if (arg == "--trace-out")
            opts.traceOut = value();
        else if (arg == "--work-dir")
            opts.workDir = value();
        else {
            usage();
            return 2;
        }
    }
    void (*workload)(const Options &, Report &) = nullptr;
    if (opts.workload == "fleet")
        workload = runFleet;
    else if (opts.workload == "ingest")
        workload = runIngest;
    else if (opts.workload == "rca_log")
        workload = runRcaLog;
    if (workload == nullptr || !(opts.seconds > 0.0)) {
        usage();
        return 2;
    }

    nazar::setLogLevel(nazar::LogLevel::kWarn);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, opts.smoke ? " smoke" : "");
    std::printf("{%s, \"buildType\": \"%s\"}\n",
                nazar::bench::hostMetaJson(
                    opts.workload == "ingest" ? "flush" : "")
                    .c_str(),
                PERFBENCH_BUILD_TYPE);

    // The per-layer figures come from histograms, which see every span.
    // The trace rings keep the first spans of each thread (see
    // NAZAR_TRACE_CAP) for the trace file and count the rest as dropped.
    if (opts.trace)
        nazar::obs::setThreadName("main");
    Report report;
    try {
        workload(opts, report);
    } catch (const std::exception &e) {
        report.gate(false, std::string("workload threw: ") + e.what());
    }
    if (opts.trace && !opts.traceOut.empty()) {
        try {
            nazar::obs::writeTraceFile(opts.traceOut);
            std::printf("trace: %zu spans (%zu more dropped by the full "
                        "rings) -> %s\n",
                        nazar::obs::traceEvents().size(),
                        nazar::obs::traceDropped(), opts.traceOut.c_str());
        } catch (const std::exception &e) {
            report.gate(false, e.what());
        }
    }
    report.print(opts.trace);
    return report.correct() ? 0 : 1;
}
