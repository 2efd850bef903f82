/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the run's
 * seed, sets up (several times, for a median set-up time), checks its
 * correctness gates outside the timed region, measures for the run's
 * length, and fills the report. Traced runs add a second, traced pass
 * and the per-layer metrics.
 */
#ifndef NAZAR_PERFBENCH_WORKLOADS_H
#define NAZAR_PERFBENCH_WORKLOADS_H

#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

/** sim::Runner::run, strategy kNazar, Cityscapes, ResNet50, 8 windows. */
void runFleet(const Options &opts, Report &report);

/** Paced kIngest traffic over TCP into a persisted, in-process server. */
void runIngest(const Options &opts, Report &report);

/** rca::Analyzer::analyze on one 160k-row drift log. */
void runRcaLog(const Options &opts, Report &report);

/**
 * The end-to-end metrics every workload reports, each read in the
 * workload's own terms (see README.md).
 */
struct EndToEnd
{
    double setupS = 0.0;
    double throughputPerS = 0.0;
    double latencyP50Ms = 0.0;
    double latencyTailMs = 0.0;
    double qualityFrac = 0.0;
};

void reportEndToEnd(Report &report, const EndToEnd &e);

/**
 * Report every per-layer metric, in BENCHMARK.json's order. A metric
 * the workload leaves out of @p values reads 0: its layer does no work
 * in that workload, or its source is a call the workload does not make.
 */
void reportLayers(Report &report, const std::map<std::string, double> &values);

} // namespace perfbench

#endif // NAZAR_PERFBENCH_WORKLOADS_H
