/**
 * @file
 * Workload `fleet`: the paper's monitor -> RCA -> adapt loop end to
 * end. sim::Runner::run with strategy kNazar over the Cityscapes app
 * and a ResNet50 base, 8 analysis windows, in-process, persistence
 * and faults off. A closed loop: each run starts when the last ended.
 *
 * The seed picks the telemetry stream and the weather; the base model
 * is trained once in set-up from a fixed seed and handed to every run
 * as `pretrained`, so the timed region holds only the loop.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace nazar;

constexpr uint64_t kBaseSeed = 5;
constexpr int kBaseEpochs = 40;

/** Everything one set-up produces. */
struct Setup
{
    data::AppSpec app = data::makeCityscapesApp();
    nn::Classifier base = bench::trainBase(app, nn::Architecture::kResNet50,
                                           kBaseSeed, kBaseEpochs);
};

sim::RunnerConfig
runnerConfig(int days, int windows, uint64_t workload_seed,
             uint64_t runner_seed)
{
    sim::RunnerConfig config;
    config.arch = nn::Architecture::kResNet50;
    config.strategy = sim::Strategy::kNazar;
    config.windows = windows;
    config.workload.days = days;
    config.workload.seed = workload_seed;
    config.seed = runner_seed;
    return config;
}

/** The fields of WindowMetrics, in declaration order. */
std::vector<size_t>
windowFields(const sim::WindowMetrics &w)
{
    return {static_cast<size_t>(w.window), w.events, w.driftedEvents,
            w.correctAll, w.correctDrifted, w.correctClean, w.flagged,
            w.rootCauses, w.newVersions, w.poolSize, w.staleDevices,
            w.skippedCauses};
}

std::vector<std::vector<size_t>>
outputs(const sim::RunResult &r)
{
    std::vector<std::vector<size_t>> out;
    for (const auto &w : r.windows)
        out.push_back(windowFields(w));
    return out;
}

/**
 * The correctness gate's fixed input: 3 windows of 14 days (the full
 * run's window length) from fixed seeds, with the full base model.
 * kGateReference holds its per-window WindowMetrics, recorded from the
 * scalar code at NAZAR_THREADS=1 and at the default thread count; the
 * determinism contract says every build and thread count reproduces
 * them exactly.
 */
constexpr int kGateDays = 42;
constexpr int kGateWindows = 3;
constexpr uint64_t kGateWorkloadSeed = 77;
constexpr uint64_t kGateRunnerSeed = 78;
constexpr uint64_t kGateWeatherSeed = 2020;

const std::vector<std::vector<size_t>> kGateReference = {
    {0, 2971, 1156, 1835, 503, 1332, 1584, 3, 3, 3, 0, 0},
    {1, 2963, 1249, 1949, 697, 1252, 1368, 13, 1, 3, 0, 12},
    {2, 3008, 1166, 1991, 650, 1341, 1300, 3, 2, 3, 0, 1},
};

void
printOutputs(const std::vector<std::vector<size_t>> &out)
{
    for (const auto &row : out) {
        std::printf("    {");
        for (size_t i = 0; i < row.size(); ++i)
            std::printf("%s%zu", i ? ", " : "", row[i]);
        std::printf("},\n");
    }
}

/** One timed pass: Runner::run repeated for @p seconds (>= 3 runs). */
struct Pass
{
    std::vector<double> runSeconds;
    std::vector<double> cycleMs;
    std::vector<double> devicePhaseS;
    std::vector<double> rcaS;
    std::vector<double> adaptS;
    sim::RunResult first;
    size_t mismatches = 0;
    obs::Snapshot before, after;
};

Pass
timedPass(const Setup &setup, const data::WeatherModel &weather,
          const sim::RunnerConfig &config, double seconds, int min_runs)
{
    Pass pass;
    pass.before = snapshot();
    auto start = Clock::now();
    while (static_cast<int>(pass.runSeconds.size()) < min_runs ||
           secondsSince(start) < seconds) {
        sim::RunResult result;
        double wall;
        {
            NAZAR_SPAN_BEGIN(span, "bench.fleet.run");
            result = sim::Runner(setup.app, weather, config, &setup.base)
                         .run();
            wall = span.stop();
        }
        pass.runSeconds.push_back(wall);
        pass.cycleMs.push_back(
            1e3 * (result.totalRcaSeconds + result.totalAdaptSeconds) /
            config.windows);
        pass.rcaS.push_back(result.totalRcaSeconds);
        pass.adaptS.push_back(result.totalAdaptSeconds);
        pass.devicePhaseS.push_back(wall - result.totalRcaSeconds -
                                    result.totalAdaptSeconds);
        if (pass.runSeconds.size() == 1)
            pass.first = std::move(result);
        else if (outputs(result) != outputs(pass.first))
            ++pass.mismatches;
    }
    pass.after = snapshot();
    return pass;
}

size_t
events(const sim::RunResult &r)
{
    size_t n = 0;
    for (const auto &w : r.windows)
        n += w.events;
    return n;
}

} // namespace

void
runFleet(const Options &opts, Report &report)
{
    // ---- Set-up: train the base model (median of several) -----------
    const int setups = opts.smoke ? 1 : 3;
    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup;
    for (int i = 0; i < setups; ++i) {
        auto t0 = Clock::now();
        auto s = std::make_unique<Setup>();
        setup_s.push_back(secondsSince(t0));
        setup = std::move(s);
    }
    std::printf("set-up (base training, %d epochs): %.3f s median of %d\n",
                kBaseEpochs, median(setup_s), setups);

    // ---- Gate: pinned reference at default and 1 thread ---------------
    {
        data::WeatherModel weather(setup->app.locations, kGateDays,
                                   kGateWeatherSeed);
        sim::RunnerConfig config = runnerConfig(
            kGateDays, kGateWindows, kGateWorkloadSeed, kGateRunnerSeed);
        auto run_at = [&](size_t threads) {
            runtime::setThreads(threads);
            auto out = outputs(
                sim::Runner(setup->app, weather, config, &setup->base)
                    .run());
            runtime::setThreads(0);
            return out;
        };
        auto at_default = run_at(0);
        auto at_one = run_at(1);
        bool pinned = at_default == kGateReference;
        if (!pinned) {
            std::printf("  gate run WindowMetrics (default threads):\n");
            printOutputs(at_default);
        }
        report.gate(pinned, "fleet: gate WindowMetrics equal the pinned "
                            "reference");
        report.gate(at_one == at_default,
                    "fleet: NAZAR_THREADS=1 equals default threads");
    }

    // ---- Inputs from the seed ------------------------------------------
    const int days = opts.smoke ? kGateDays : kSimPeriodDays;
    const int windows = opts.smoke ? kGateWindows : 8;
    data::WeatherModel weather(setup->app.locations, days,
                               2000 + opts.seed);
    sim::RunnerConfig config = runnerConfig(days, windows,
                                            1000 + 2 * opts.seed,
                                            1001 + 2 * opts.seed);

    // Warm-up: one untimed run spins the pool up and settles lazy
    // allocation before anything is timed.
    if (!opts.smoke)
        sim::Runner(setup->app, weather, config, &setup->base).run();

    const int min_runs = opts.smoke ? 1 : 3;
    Pass pass = timedPass(*setup, weather, config, opts.seconds, min_runs);
    const sim::RunResult &r = pass.first;
    report.gate(pass.mismatches == 0,
                "fleet: every timed run gives the same WindowMetrics");
    report.gate(r.windows.size() == static_cast<size_t>(windows) &&
                    events(r) > 0 && r.avgAccuracyAll() > 0.0,
                "fleet: runs cover every window with events");
    report.addAttempted(pass.runSeconds.size());
    report.addFailed(pass.mismatches);

    std::vector<double> events_per_s;
    for (double s : pass.runSeconds)
        events_per_s.push_back(static_cast<double>(events(r)) / s);
    EndToEnd e;
    e.setupS = median(setup_s);
    e.throughputPerS = median(events_per_s);
    e.latencyP50Ms = median(pass.cycleMs);
    // About 17 runs fit in a 20 s run, too few for a percentile with
    // ten samples beyond it; the upper quartile is the steadiest tail
    // they give (over ten seeds on a 4-core host the p90 spread by
    // 10.6% of its median).
    e.latencyTailMs = percentile(pass.cycleMs, 0.75);
    e.qualityFrac = r.avgAccuracyAll();
    reportEndToEnd(report, e);
    std::printf("fleet: %zu runs of %zu events, %.3f-%.3f s each; "
                "fleet_events_per_s %.1f, fleet_cycle_ms p50 %.3f p75 "
                "%.3f, fleet_accuracy %.6f\n",
                pass.runSeconds.size(), events(r),
                percentile(pass.runSeconds, 0.0),
                percentile(pass.runSeconds, 1.0), e.throughputPerS,
                e.latencyP50Ms, e.latencyTailMs, e.qualityFrac);
    if (!opts.trace)
        return;

    // ---- Traced pass: the per-layer breakdown ------------------------
    Pass traced;
    {
        TracedPass on;
        traced = timedPass(*setup, weather, config, opts.seconds, min_runs);
    }
    report.gate(traced.mismatches == 0 &&
                    outputs(traced.first) == outputs(r),
                "fleet: traced runs give the untraced WindowMetrics");
    const double n = static_cast<double>(traced.runSeconds.size());
    auto h = [&](const char *name) {
        return histDelta(traced.before, traced.after, name);
    };
    auto busy = [&](const char *name) { return h(name).sum / n; };
    auto count = [&](const char *name) {
        return static_cast<double>(h(name).count) / n;
    };
    double matmul_busy = busy("nn.matmul") + busy("nn.transpose_matmul") +
                         busy("nn.matmul_transpose");
    double matmul_count = count("nn.matmul") +
                          count("nn.transpose_matmul") +
                          count("nn.matmul_transpose");
    size_t root_causes = 0, skipped = 0, versions = 0, flagged = 0;
    for (const auto &w : traced.first.windows) {
        root_causes += w.rootCauses;
        skipped += w.skippedCauses;
        versions += w.newVersions;
        flagged += w.flagged;
    }

    std::vector<LayerRow> rows = {
        {"bench.fleet.run", "", 1.0, busy("bench.fleet.run")},
        {"sim.window", "bench.fleet.run", count("sim.window"),
         busy("sim.window")},
        {"sim.cloud.cycle", "sim.window", count("sim.cloud.cycle"),
         busy("sim.cloud.cycle")},
        {"sim.cloud.rca", "sim.cloud.cycle", count("sim.cloud.rca"),
         busy("sim.cloud.rca")},
        {"rca.analyze", "sim.cloud.rca", count("rca.analyze"),
         busy("rca.analyze")},
        {"rca.fim.mine", "rca.analyze", count("rca.fim.mine"),
         busy("rca.fim.mine")},
        {"rca.fim.level1", "rca.fim.mine", count("rca.fim.level1"),
         busy("rca.fim.level1")},
        {"rca.fim.levelk", "rca.fim.mine", count("rca.fim.levelk"),
         busy("rca.fim.levelk")},
        {"rca.walk", "rca.analyze", count("rca.walk"), busy("rca.walk")},
        {"sim.cloud.adapt", "sim.cloud.cycle", count("sim.cloud.adapt"),
         busy("sim.cloud.adapt")},
        {"nn.forward", "bench.fleet.run", count("nn.forward"),
         busy("nn.forward"), true},
        {"nn.backward", "bench.fleet.run", count("nn.backward"),
         busy("nn.backward"), true},
        {"nn.matmul (all 3)", "bench.fleet.run", matmul_count,
         matmul_busy, true},
        {"detect.msp.is_drift", "bench.fleet.run",
         count("detect.msp.is_drift"), busy("detect.msp.is_drift"), true},
        {"runtime.batch", "bench.fleet.run",
         count("runtime.batch.seconds"), busy("runtime.batch.seconds"),
         true},
    };
    double unattributed = printLayerTable("fleet", rows);

    std::map<std::string, double> v;
    v["sim.device_phase_s"] = median(traced.devicePhaseS);
    v["nn.forward.busy_s"] = busy("nn.forward");
    v["nn.forward.count"] = count("nn.forward");
    v["detect.msp.busy_s"] = busy("detect.msp.is_drift");
    v["detect.msp.count"] = count("detect.msp.is_drift");
    v["rca.cycle_s"] = median(traced.rcaS);
    v["adapt.cycle_s"] = median(traced.adaptS);
    v["nn.backward.busy_s"] = busy("nn.backward");
    v["nn.matmul.busy_s"] = matmul_busy;
    v["nn.matmul.count"] = matmul_count;
    v["runtime.pool.busy_s"] = busy("runtime.batch.seconds");
    v["runtime.pool.batches"] = count("runtime.batch.seconds");
    v["rca.root_causes"] = static_cast<double>(root_causes);
    v["adapt.skipped_causes"] = static_cast<double>(skipped);
    v["deploy.new_versions"] = static_cast<double>(versions);
    v["fleet.flagged"] = static_cast<double>(flagged);
    v["rca.fim.mine_ms"] = 1e3 * busy("rca.fim.mine");
    v["rca.fim.level1_ms"] = 1e3 * busy("rca.fim.level1");
    v["rca.fim.levelk_ms"] = 1e3 * busy("rca.fim.levelk");
    v["rca.walk_ms"] = 1e3 * busy("rca.walk");
    v["rca.reduce_ms"] = 1e3 * (busy("rca.analyze") -
                                busy("rca.fim.mine") - busy("rca.walk"));
    v["unattributed_frac"] = unattributed;
    v["trace_overhead_frac"] =
        median(traced.runSeconds) / median(pass.runSeconds) - 1.0;
    reportLayers(report, v);
}

} // namespace perfbench
