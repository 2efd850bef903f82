/**
 * @file
 * Shared pieces of the repository benchmark: options, the result
 * report (end-to-end and per-layer metrics, correctness gates), the
 * traced-pass switch, and readers for the histograms the program's
 * spans and the benchmark's own spans feed.
 */
#ifndef NAZAR_PERFBENCH_HARNESS_H
#define NAZAR_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p t0 to now. */
double secondsSince(Clock::time_point t0);

/** Seconds between two time points. */
double seconds(Clock::time_point from, Clock::time_point to);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes for the benchmark's own smoke test. */
    bool smoke = false;
    /** Where the traced run writes its trace (empty = nowhere). */
    std::string traceOut;
    /** Scratch directory for state the workloads write. */
    std::string workDir = ".";
};

/** Percentile @p q in [0, 1] by linear interpolation (numpy's
 *  default). @p values need not be sorted; empty gives 0. */
double percentile(std::vector<double> values, double q);

/** Median of @p values. */
double median(const std::vector<double> &values);

/**
 * The traced pass of a run. While in scope the program's causal
 * tracing is on, so the bench spans (NAZAR_SPAN around each public
 * call the workload makes, named `bench.*`) and the program's own
 * spans land in the in-memory trace rings as well as in their
 * histograms. A bench span opened with no span around it starts a
 * trace of its own: each workload operation carries one trace id.
 */
class TracedPass
{
  public:
    TracedPass() { nazar::obs::setTracing(true); }
    ~TracedPass() { nazar::obs::setTracing(false); }
    TracedPass(const TracedPass &) = delete;
    TracedPass &operator=(const TracedPass &) = delete;
};

/** The change of histogram @p name (seconds) between two snapshots:
 *  what the program's spans recorded in a measured region. Empty when
 *  the program never registered it. */
nazar::obs::HistogramSnapshot histDelta(const nazar::obs::Snapshot &before,
                                        const nazar::obs::Snapshot &after,
                                        const std::string &name);

/** A snapshot of the program's metric registry. */
nazar::obs::Snapshot snapshot();

/**
 * Everything a run reports. The last line of standard output is one
 * JSON object: the end-to-end metrics on an untraced run, the
 * per-layer metrics on a traced one.
 */
class Report
{
  public:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };

    /** Record a metric; a non-finite @p value fails the run. */
    void endToEnd(const std::string &name, double value,
                  const std::string &unit);
    void layer(const std::string &name, double value,
               const std::string &unit);

    /** Record a correctness gate; a false @p ok fails the run. */
    void gate(bool ok, const std::string &what);

    void addAttempted(uint64_t n) { attempted_ += n; }
    void addFailed(uint64_t n) { failed_ += n; }

    bool correct() const { return gateFailures_ == 0; }

    /** Print the human-readable lines and the final JSON line. */
    void print(bool traced) const;

  private:
    std::vector<std::pair<std::string, Metric>> endToEnd_;
    std::vector<std::pair<std::string, Metric>> layers_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    int gateFailures_ = 0;
};

/**
 * One row of the per-layer table printed by traced runs. Rows nest by
 * `parent` (empty = the workload operation itself). `busy` is seconds
 * per workload operation; `self` is busy minus the busy time of the
 * row's children. Rows marked `concurrent` run on other threads and
 * overlap the operation's wall time, so they take no part in the
 * self-time arithmetic of their parent.
 */
struct LayerRow
{
    std::string name;
    std::string parent;
    double count = 0.0;
    double busy = 0.0;
    bool concurrent = false;
    double self = 0.0;
};

/**
 * Fill in each row's self time, print the table, and return the root
 * row's self share: the part of the operation no span accounts for.
 */
double printLayerTable(const std::string &workload,
                       std::vector<LayerRow> &rows);

} // namespace perfbench

#endif // NAZAR_PERFBENCH_HARNESS_H
