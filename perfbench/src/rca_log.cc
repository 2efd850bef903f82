/**
 * @file
 * Workload `rca_log`: Fig 9d's experiment. rca::Analyzer::analyze
 * called repeatedly on one 160k-row drift log (the generator shape of
 * bench_fig9d_rca_scaling's makeLog, seeded from the run's seed) at the
 * default thread count. The drift-log column scans and the RCA stages
 * (FIM level 1 and level k, set reduction, counterfactual walk) do all
 * the work.
 */
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "driftlog/drift_log.h"
#include "rca/analyzer.h"
#include "rca/fim.h"
#include "rca/set_reduction.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace nazar;

/** Set-up samples per run, spread over the run (see runRcaLog). */
constexpr int kSetupSamples = 9;

/** Fig 9d's synthetic drift log: weather drifts are the true causes,
 *  the rest is false-positive noise. */
driftlog::DriftLog
makeLog(size_t rows, uint64_t seed)
{
    Rng rng(seed);
    const char *weathers[] = {"clear-day", "rain", "snow", "fog"};
    const char *locations[] = {"new_york", "tibet", "beijing",
                               "new_south_wales", "united_kingdom",
                               "quebec", "sao_paulo"};
    driftlog::DriftLog log;
    for (size_t i = 0; i < rows; ++i) {
        driftlog::DriftLogEntry e;
        e.time = SimDate(static_cast<int>(i % 112));
        int device = static_cast<int>(rng.index(112));
        e.deviceId = "android_" + std::to_string(device);
        e.deviceModel = "model_" + std::to_string(device % 4);
        e.location = locations[rng.index(7)];
        size_t w = rng.index(4);
        e.weather = weathers[w];
        e.drift = w != 0 ? rng.bernoulli(0.7) : rng.bernoulli(0.2);
        log.add(e);
    }
    return log;
}

/** Root causes as printable strings, in acceptance order. */
std::vector<std::string>
causes(const rca::AnalysisResult &r)
{
    std::vector<std::string> out;
    for (const auto &c : r.rootCauses)
        out.push_back(c.attrs.toString());
    return out;
}

/** The pinned answer: with these drift rates every seed's log of this
 *  size has exactly the three non-clear weathers as root causes. */
bool
pinnedCauses(const std::vector<std::string> &got)
{
    const std::set<std::string> want = {"{weather=fog}", "{weather=rain}",
                                        "{weather=snow}"};
    return got.size() == want.size() &&
           std::set<std::string>(got.begin(), got.end()) == want;
}

bool
sameCauses(const std::vector<rca::RankedCause> &a,
           const std::vector<rca::RankedCause> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i].metrics, &y = b[i].metrics;
        if (!(a[i].attrs == b[i].attrs) || x.setCount != y.setCount ||
            x.setDriftCount != y.setDriftCount ||
            x.riskRatio != y.riskRatio || x.confidence != y.confidence)
            return false;
    }
    return true;
}

struct Pass
{
    std::vector<double> callMs;
    size_t wrong = 0;
    rca::AnalysisResult last;
    obs::Snapshot before, after;
};

Pass
timedPass(const rca::Analyzer &analyzer, const driftlog::Table &table,
          double seconds, int min_calls)
{
    Pass pass;
    pass.before = snapshot();
    auto start = Clock::now();
    while (static_cast<int>(pass.callMs.size()) < min_calls ||
           secondsSince(start) < seconds) {
        rca::AnalysisResult result;
        {
            NAZAR_SPAN_BEGIN(span, "bench.rca.call");
            result = analyzer.analyze(table);
            pass.callMs.push_back(1e3 * span.stop());
        }
        if (!pinnedCauses(causes(result)))
            ++pass.wrong;
        pass.last = std::move(result);
    }
    pass.after = snapshot();
    return pass;
}

/** Untimed calls until three in a row agree within 10% (at most 30). */
void
warmUp(const rca::Analyzer &analyzer, const driftlog::Table &table)
{
    std::vector<double> ms;
    for (int i = 0; i < 30; ++i) {
        auto t0 = Clock::now();
        analyzer.analyze(table);
        ms.push_back(1e3 * secondsSince(t0));
        if (ms.size() >= 3) {
            double a = ms[ms.size() - 3], b = ms[ms.size() - 2],
                   c = ms.back();
            double lo = std::min({a, b, c}), hi = std::max({a, b, c});
            if (hi <= 1.1 * lo)
                break;
        }
    }
    std::printf("warm-up: %zu untimed calls, first %.2f ms, last %.2f ms\n",
                ms.size(), ms.front(), ms.back());
}

} // namespace

void
runRcaLog(const Options &opts, Report &report)
{
    const size_t rows = opts.smoke ? 20000 : 160000;
    rca::RcaConfig config;
    config.attributeColumns = driftlog::DriftLog::defaultAttributeColumns();

    // ---- Set-up: generate the log -----------------------------------
    // Set-up time drifts with the shared host over seconds, so its
    // samples are spread over the run, one here and one after each
    // chunk of the timed pass, rather than taken back to back: their
    // median is the steadier for it.
    std::vector<double> setup_s;
    auto set_up = [&] {
        auto t0 = Clock::now();
        driftlog::DriftLog made = makeLog(rows, opts.seed);
        setup_s.push_back(secondsSince(t0));
        return made;
    };
    driftlog::DriftLog log = set_up();
    const driftlog::Table &table = log.table();
    rca::Analyzer analyzer(config);

    // ---- Gate: the id-probing miner equals the reference miner --------
    {
        rca::Fim fim(table, config);
        std::vector<bool> flags = rca::Fim::driftFlags(table,
                                                       config.driftColumn);
        report.gate(sameCauses(fim.mine(flags), fim.mineReference(flags)),
                    "rca_log: Fim::mine equals Fim::mineReference");
    }

    warmUp(analyzer, table);
    const int min_calls = opts.smoke ? 3 : 20;
    const int chunks = opts.smoke ? 1 : kSetupSamples - 1;
    Pass pass;
    for (int k = 0; k < chunks; ++k) {
        Pass chunk = timedPass(analyzer, table, opts.seconds / chunks,
                               (min_calls + chunks - 1) / chunks);
        pass.callMs.insert(pass.callMs.end(), chunk.callMs.begin(),
                           chunk.callMs.end());
        pass.wrong += chunk.wrong;
        pass.last = std::move(chunk.last);
        if (!opts.smoke) {
            set_up();
            analyzer.analyze(table); // re-warm what set-up evicted
        }
    }
    std::printf("set-up (drift log, %zu rows): %.4f s median of %zu\n",
                rows, median(setup_s), setup_s.size());
    report.gate(pass.wrong == 0,
                "rca_log: every call finds the pinned root causes");
    report.addAttempted(pass.callMs.size());
    report.addFailed(pass.wrong);

    double total_s = 0.0;
    for (double ms : pass.callMs)
        total_s += ms / 1e3;
    EndToEnd e;
    e.setupS = median(setup_s);
    e.throughputPerS =
        static_cast<double>(rows * pass.callMs.size()) / total_s;
    e.latencyP50Ms = median(pass.callMs);
    e.latencyTailMs = percentile(pass.callMs, 0.9);
    e.qualityFrac = 1.0 - static_cast<double>(pass.wrong) /
                              static_cast<double>(pass.callMs.size());
    reportEndToEnd(report, e);
    std::printf("rca_log: %zu calls; rca_p50_ms %.3f, rca_p90_ms %.3f, "
                "root causes %zu\n",
                pass.callMs.size(), e.latencyP50Ms, e.latencyTailMs,
                pass.last.rootCauses.size());
    if (!opts.trace)
        return;

    // ---- Traced pass ---------------------------------------------------
    Pass traced;
    {
        TracedPass on;
        traced = timedPass(analyzer, table, opts.seconds, min_calls);
    }
    report.gate(traced.wrong == 0,
                "rca_log: traced calls find the pinned root causes");
    const double n = static_cast<double>(traced.callMs.size());
    auto h = [&](const char *name) {
        return histDelta(traced.before, traced.after, name);
    };
    auto busy = [&](const char *name) { return h(name).sum / n; };
    auto count = [&](const char *name) {
        return static_cast<double>(h(name).count) / n;
    };
    std::vector<LayerRow> layer_rows = {
        {"bench.rca.call", "", 1.0, busy("bench.rca.call")},
        {"rca.analyze", "bench.rca.call", count("rca.analyze"),
         busy("rca.analyze")},
        {"rca.fim.mine", "rca.analyze", count("rca.fim.mine"),
         busy("rca.fim.mine")},
        {"rca.fim.level1", "rca.fim.mine", count("rca.fim.level1"),
         busy("rca.fim.level1")},
        {"rca.fim.levelk", "rca.fim.mine", count("rca.fim.levelk"),
         busy("rca.fim.levelk")},
        {"rca.walk", "rca.analyze", count("rca.walk"), busy("rca.walk")},
        {"rca.metrics", "rca.walk", count("rca.metrics"),
         busy("rca.metrics")},
        {"runtime.batch", "bench.rca.call",
         count("runtime.batch.seconds"), busy("runtime.batch.seconds"),
         true},
    };
    double unattributed = printLayerTable("rca_log", layer_rows);

    // Bench-timed stages, each called on its own after the pass.
    std::vector<double> mine_ms, reduce_ms;
    {
        TracedPass on;
        rca::Fim fim(table, config);
        std::vector<bool> flags =
            rca::Fim::driftFlags(table, config.driftColumn);
        std::vector<rca::RankedCause> ranked;
        for (int i = 0; i < 5; ++i) {
            NAZAR_SPAN_BEGIN(span, "bench.fim.mine");
            ranked = fim.mine(flags);
            mine_ms.push_back(1e3 * span.stop());
        }
        std::vector<rca::RankedCause> passing;
        for (const auto &c : ranked)
            if (rca::passesThresholds(c.metrics, config))
                passing.push_back(c);
        for (int i = 0; i < 5; ++i) {
            NAZAR_SPAN_BEGIN(span, "bench.reduce");
            rca::reduceCauses(passing);
            reduce_ms.push_back(1e3 * span.stop());
        }
    }

    // The runtime layer: the same calls on one thread, untraced like
    // the pass it is compared with.
    runtime::setThreads(1);
    warmUp(analyzer, table);
    Pass single = timedPass(analyzer, table, opts.seconds / 4, 5);
    runtime::setThreads(0);
    report.gate(single.wrong == 0 &&
                    sameCauses(single.last.rootCauses,
                               pass.last.rootCauses),
                "rca_log: NAZAR_THREADS=1 finds the same root causes");

    std::map<std::string, double> v;
    v["rca.cycle_s"] = median(traced.callMs) / 1e3;
    v["rca.root_causes"] = static_cast<double>(traced.last.rootCauses.size());
    v["rca.candidates"] = static_cast<double>(traced.last.fimTable.size());
    v["rca.fim.mine_ms"] = median(mine_ms);
    v["rca.fim.level1_ms"] = 1e3 * busy("rca.fim.level1");
    v["rca.fim.levelk_ms"] = 1e3 * busy("rca.fim.levelk");
    v["rca.walk_ms"] = 1e3 * busy("rca.walk");
    v["rca.reduce_ms"] = median(reduce_ms);
    v["runtime.pool.busy_s"] = busy("runtime.batch.seconds");
    v["runtime.pool.batches"] = count("runtime.batch.seconds");
    v["runtime.rca_t1_ms"] = median(single.callMs);
    v["runtime.rca_speedup"] = median(single.callMs) / median(pass.callMs);
    v["unattributed_frac"] = unattributed;
    v["trace_overhead_frac"] = median(traced.callMs) / median(pass.callMs) -
                               1.0;
    reportLayers(report, v);
}

} // namespace perfbench
