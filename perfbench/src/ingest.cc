/**
 * @file
 * Workload `ingest`: open-loop, paced kIngest traffic over TCP into an
 * in-process server::IngestServer fronting a persisted sim::Cloud with
 * the default PersistConfig (snapshotEvery 256, fullEvery 8, kFlush).
 * No analysis cycle runs, so net, server, persist and the drift-log
 * append path do all the work.
 *
 * One generator thread (this one) sends over up to four connections,
 * each driven through net's public wire API (encodeIngest, TcpStream):
 * the bytes a fault-free IngestClient sends. Each connection has a
 * reader thread of its own that timestamps every ack as it arrives.
 * IngestClient itself absorbs acks only inside its next sendIngest, so
 * through it an ack would be seen up to connections / rate late (0.4
 * ms at the reference rate), about the whole ack latency. Message i is
 * due at start + i / rate whatever happened to earlier messages, and
 * its latency runs from that due time to its ack's arrival, so a stall
 * is charged to every message it delays.
 *
 * Steps, each from a fresh state directory, alternate: eight reference
 * steps at a fixed rate (the latency metrics and the restart time are
 * medians over them) and eight saturating steps, each offered far more
 * than the server commits (the throughput is their median commit
 * rate; a gate fails a step whose generator did not clearly outrun
 * the server). Traced runs add a geometric bisection for the highest
 * rate that holds the latency limit without a growing backlog; one
 * such search swings by more than any bound from run to run, so it is
 * a per-layer figure, not an end-to-end one.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "common/rng.h"
#include "common/sim_date.h"
#include "data/apps.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "nn/classifier.h"
#include "server/ingest_server.h"
#include "sim/cloud.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace nazar;
namespace fs = std::filesystem;

constexpr int kDevices = 96;
constexpr int kFeatureDim = 32;
/** The reference rate: the latency metrics are read at this rate. */
constexpr double kReferenceRate = 10000.0;
/**
 * Pairs of steps per run: one reference step, at kReferenceRate, and
 * one saturating step. The latency metrics are medians over the
 * reference steps: a step's p99.9 is set by its few longest snapshot
 * stalls, so pooling the sends of all steps lets one slow stall decide
 * the figure (ten seeds on a 4-core host spread by 37% of the median
 * that way). A saturating step offers kSaturationRate, far above what
 * the server commits, so the generator sends as fast as it can and the
 * commit rate is the server's; the throughput is the median over those
 * steps. A saturating step is valid only when the generator sent at
 * least kSaturationMargin times faster than the server committed;
 * otherwise the figure would be the generator's.
 */
constexpr int kStepPairs = 8;
constexpr double kSaturationRate = 100.0 * kReferenceRate;
constexpr double kSaturationMargin = 1.25;
/** Latency limit on a step's p99.9 ack latency. */
constexpr double kLimitMs = 100.0;
/** Highest rate the bisection tries, as a multiple of the reference. */
constexpr double kTopFactor = 6.0;
constexpr int kBisectionSteps = 5;

/** Synthetic telemetry with Cityscapes cardinalities: ~100 devices in
 *  21 cities, four weathers, a 32-dim upload on 1 event in 4. */
std::vector<net::WireIngest>
makeTelemetry(size_t n, uint64_t seed)
{
    data::AppSpec app = data::makeCityscapesApp();
    Rng rng(seed);
    const char *weathers[] = {"clear-day", "rain", "snow", "fog"};
    std::vector<uint64_t> seq(kDevices, 0);
    std::vector<net::WireIngest> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        net::WireIngest m;
        int device = static_cast<int>(rng.index(kDevices));
        m.device = device;
        m.seq = ++seq[device];
        m.entry.time = SimDate(static_cast<int>(i / 2000) % 112,
                               static_cast<int>(i % 2000) * 40);
        m.entry.deviceId = data::deviceName(device);
        m.entry.deviceModel = data::deviceModel(device);
        m.entry.location = app.locations[device % app.locations.size()].name;
        size_t w = rng.uniform() < 0.7 ? 0 : 1 + rng.index(3);
        m.entry.weather = weathers[w];
        m.entry.modelVersion = 1;
        m.entry.drift = w != 0 ? rng.bernoulli(0.7) : rng.bernoulli(0.1);
        if (i % 4 == 0) {
            persist::UploadRecord up;
            up.features.reserve(kFeatureDim);
            for (int f = 0; f < kFeatureDim; ++f)
                up.features.push_back(rng.normal(0.0, 1.0));
            up.context = rca::AttributeSet(
                {{driftlog::columns::kLocation,
                  driftlog::Value(m.entry.location)},
                 {driftlog::columns::kWeather,
                  driftlog::Value(m.entry.weather)}});
            up.driftFlag = m.entry.drift;
            m.upload = std::move(up);
        }
        out.push_back(std::move(m));
    }
    return out;
}

/**
 * CPU placement. A load generator that shares a core with the server
 * it drives changes what it measures: server work on that core delays
 * the generator and the ack readers. So, with two or more CPUs, the
 * generator and its ack readers get one CPU to themselves and every
 * server thread is started on the others (threads inherit the mask of
 * the thread that creates them).
 */
struct Cpus
{
    cpu_set_t all;
    cpu_set_t server;
    cpu_set_t generator;
    bool split = false;

    Cpus()
    {
        CPU_ZERO(&all);
        CPU_ZERO(&server);
        CPU_ZERO(&generator);
        if (sched_getaffinity(0, sizeof(all), &all) != 0 ||
            CPU_COUNT(&all) < 2)
            return;
        server = all;
        for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
            if (CPU_ISSET(cpu, &all)) {
                CPU_CLR(cpu, &server);
                CPU_SET(cpu, &generator);
                break;
            }
        }
        split = true;
    }

    static const Cpus &get()
    {
        static const Cpus cpus;
        return cpus;
    }
};

/** Pin the calling thread to @p set while in scope. */
class Pinned
{
  public:
    explicit Pinned(const cpu_set_t &set)
    {
        if (Cpus::get().split)
            sched_setaffinity(0, sizeof(set), &set);
    }
    ~Pinned()
    {
        if (Cpus::get().split)
            sched_setaffinity(0, sizeof(Cpus::get().all), &Cpus::get().all);
    }
    Pinned(const Pinned &) = delete;
    Pinned &operator=(const Pinned &) = delete;
};

/**
 * The generator's scope: this thread, and the ack readers it starts,
 * run on the generator CPU, and its pacing sleeps end within
 * microseconds of their due time (timer slack 1 ns instead of the
 * default 50 us, which would show as lag on every send). The generator
 * sleeps rather than spins between sends so that the readers sharing
 * its CPU run the moment an ack arrives.
 */
class GeneratorScope
{
  public:
    GeneratorScope()
        : pin_(Cpus::get().generator), slack_(prctl(PR_GET_TIMERSLACK))
    {
        prctl(PR_SET_TIMERSLACK, 1UL);
    }
    ~GeneratorScope()
    {
        if (slack_ > 0)
            prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack_));
    }
    GeneratorScope(const GeneratorScope &) = delete;
    GeneratorScope &operator=(const GeneratorScope &) = delete;

  private:
    Pinned pin_;
    int slack_;
};

/**
 * One ingest connection. The generator thread sends; a reader thread
 * of its own receives, and hands every ack to the observer with the
 * time it arrived. Counters are read only after bye().
 */
class Connection
{
  public:
    using Observer =
        std::function<void(const net::WireAck &, Clock::time_point)>;

    Connection(uint16_t port, const std::string &name, Observer observer)
        : stream_(net::TcpStream::connect(port)),
          observer_(std::move(observer))
    {
        net::WireHello hello;
        hello.clientName = name;
        auto reply =
            stream_.sendFrame(net::MsgType::kHello, net::encodeHello(hello))
                ? stream_.recvFrame()
                : std::nullopt;
        if (!reply || reply->type != net::MsgType::kHelloAck)
            throw std::runtime_error("ingest: handshake failed");
        reader_ = std::thread([this] { read(); });
    }

    ~Connection()
    {
        if (reader_.joinable()) {
            // Left before bye() (a send threw): wake the reader.
            ::shutdown(stream_.fd(), SHUT_RDWR);
            reader_.join();
        }
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void send(const net::WireIngest &m)
    {
        if (!stream_.sendFrame(net::MsgType::kIngest,
                               net::encodeIngest(m, dict_)))
            throw std::runtime_error("ingest: server closed during send");
        ++sent_;
    }

    /** Send kBye; wait for the reader to see kByeAck and the server's
     *  close, then close our half. */
    void bye()
    {
        if (!stream_.sendFrame(net::MsgType::kBye, std::string()))
            throw std::runtime_error("ingest: server closed during bye");
        reader_.join();
        stream_.shutdownWrite();
    }

    /** Every send accepted once, nothing refused, a clean goodbye. */
    bool reconciled() const
    {
        return error_.empty() && byeAcked_ && accepted_ == sent_ &&
               rejected_ == 0 && busy_ == 0;
    }

    size_t accepted() const { return accepted_; }
    const std::string &error() const { return error_; }

  private:
    void read()
    {
        try {
            while (auto frame = stream_.recvFrame()) {
                auto now = Clock::now();
                if (frame->type == net::MsgType::kAck) {
                    net::WireAck ack = net::decodeAck(frame->payload);
                    ++(ack.accepted ? accepted_ : rejected_);
                    observer_(ack, now);
                } else if (frame->type == net::MsgType::kBusy) {
                    ++busy_;
                } else if (frame->type == net::MsgType::kByeAck &&
                           !byeAcked_) {
                    byeAcked_ = true;
                } else {
                    error_ = "unexpected frame type " +
                             std::to_string(static_cast<int>(frame->type));
                    return;
                }
            }
            if (!byeAcked_)
                error_ = "server closed before kByeAck";
        } catch (const std::exception &e) {
            error_ = e.what();
        }
    }

    net::TcpStream stream_;
    net::StringDict dict_;
    Observer observer_;
    std::thread reader_;
    size_t sent_ = 0;
    size_t accepted_ = 0;
    size_t rejected_ = 0;
    size_t busy_ = 0;
    bool byeAcked_ = false;
    std::string error_;
};

/** A running server over a fresh state directory. */
struct Service
{
    sim::CloudConfig config;
    std::unique_ptr<sim::Cloud> cloud;
    std::unique_ptr<server::IngestServer> server;

    Service(const fs::path &dir, const nn::Classifier &base)
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
        config.persist.dir = dir.string();
        cloud = std::make_unique<sim::Cloud>(config, base);
        server = std::make_unique<server::IngestServer>(*cloud);
        Pinned pin(Cpus::get().server);
        server->start();
    }
};

uint64_t
dirBytes(const fs::path &dir, const std::string &only = "")
{
    uint64_t bytes = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.is_regular_file() &&
            (only.empty() || entry.path().filename() == only))
            bytes += entry.file_size();
    return bytes;
}

/** What one step measured. */
struct Step
{
    double rate = 0.0;
    size_t attempted = 0;
    size_t acked = 0;     ///< Accepted acks, all connections.
    size_t missing = 0;   ///< Sent without an accepted ack.
    bool reconciled = true; ///< Every connection reconciled().
    std::vector<double> latencyMs;
    std::vector<double> lagMs;
    double p50 = 0.0, p999 = 0.0;
    double tailP50 = 0.0; ///< Median latency of the last 10% of sends.
    double sendS = 0.0;   ///< Time inside Connection::send, summed.
    double sendEndS = 0.0; ///< First due time to the last send.
    double wallS = 0.0; ///< First due time to the last ack.
    server::ServerStats server;
    obs::Snapshot before, after;

    /** Sends per second the generator achieved. */
    double sendRate() const
    {
        return static_cast<double>(attempted) / sendEndS;
    }

    /** Accepted acks per second: the server's commit rate. */
    double commitRate() const
    {
        return static_cast<double>(acked) / wallS;
    }

    /**
     * How far the step is from its limits: the larger of p99.9 over the
     * latency limit and the median latency of the last tenth of sends
     * over half the limit (a growing backlog). At most 1 means the
     * rate holds; infinite when the step lost acks.
     */
    double load() const
    {
        if (missing != 0 || !reconciled)
            return std::numeric_limits<double>::infinity();
        return std::max(p999 / kLimitMs, tailP50 / (kLimitMs / 2));
    }

    bool sustained() const { return load() <= 1.0; }
};

/**
 * Offer @p count messages at @p rate over @p conns connections, then
 * close every session. The service is left running so the caller can
 * inspect or restart it.
 */
Step
runStep(Service &service, const std::vector<net::WireIngest> &telemetry,
        size_t count, double rate, int conns)
{
    Step step;
    step.rate = rate;
    step.before = snapshot();
    // Message index by (device, seq): seqs are dense from 1 per device.
    // Declared before the connections, whose readers refer to them.
    std::vector<std::vector<uint32_t>> index(kDevices);
    for (size_t i = 0; i < count; ++i)
        index[telemetry[i].device].push_back(static_cast<uint32_t>(i));
    std::vector<Clock::time_point> acked_at(count);
    auto observe = [&](const net::WireAck &ack, Clock::time_point at) {
        // An ack for a (device, seq) never sent counts nowhere; the
        // per-connection reconciliation gate catches it.
        if (ack.accepted && ack.device >= 0 && ack.device < kDevices &&
            ack.seq != 0 && ack.seq <= index[ack.device].size())
            acked_at[index[ack.device][ack.seq - 1]] = at;
    };

    const double period = 1.0 / rate;
    step.lagMs.reserve(count);
    size_t sent = 0;
    Clock::time_point start;
    {
        GeneratorScope generator;
        std::vector<std::unique_ptr<Connection>> clients;
        for (int c = 0; c < conns; ++c)
            clients.push_back(std::make_unique<Connection>(
                service.server->port(), "perfbench-" + std::to_string(c),
                observe));
        NAZAR_SPAN("bench.ingest.step");
        start = Clock::now();
        for (; sent < count; ++sent) {
            auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       period * static_cast<double>(sent)));
            {
                NAZAR_SPAN("bench.ingest.pace");
                std::this_thread::sleep_until(due);
            }
            step.lagMs.push_back(1e3 * seconds(due, Clock::now()));
            NAZAR_SPAN_BEGIN(send, "bench.net.send");
            clients[sent % conns]->send(telemetry[sent]);
            step.sendS += send.stop();
        }
        step.sendEndS = secondsSince(start);
        NAZAR_SPAN("bench.ingest.drain");
        for (auto &client : clients) {
            client->bye();
            step.acked += client->accepted();
            step.reconciled = step.reconciled && client->reconciled();
            if (!client->error().empty())
                std::printf("  connection error: %s\n",
                            client->error().c_str());
        }
    }
    step.attempted = sent;
    step.latencyMs.reserve(sent);
    Clock::time_point last = start;
    for (size_t i = 0; i < sent; ++i) {
        if (acked_at[i] == Clock::time_point{}) {
            ++step.missing;
            continue;
        }
        last = std::max(last, acked_at[i]);
        step.latencyMs.push_back(1e3 * (seconds(start, acked_at[i]) -
                                         period * static_cast<double>(i)));
    }
    step.wallS = seconds(start, last);
    step.p50 = percentile(step.latencyMs, 0.5);
    step.p999 = percentile(step.latencyMs, 0.999);
    size_t tail_from = step.latencyMs.size() * 9 / 10;
    step.tailP50 = median(std::vector<double>(
        step.latencyMs.begin() + static_cast<long>(tail_from),
        step.latencyMs.end()));
    step.server = service.server->stats();
    step.after = snapshot();
    return step;
}

void
printStep(const char *what, const Step &s)
{
    std::printf("  %-9s %8.0f ev/s  sent %6zu  p50 %8.3f ms  p99.9 %9.3f "
                "ms  tail-p50 %8.3f ms  lag p50/p99 %.3f/%.3f ms  sent "
                "%.0f/s  committed %.0f/s  %s\n",
                what, s.rate, s.attempted, s.p50, s.p999, s.tailP50,
                percentile(s.lagMs, 0.5), percentile(s.lagMs, 0.99),
                s.sendRate(), s.commitRate(),
                s.sustained() ? "holds" : "fails");
}

/** The reference step plus the restart measured on its state. */
struct Reference
{
    Step step;
    double recoverMs = 0.0;
    double checkpointMs = 0.0;
    uint64_t stateBytes = 0;
    uint64_t walBytes = 0;
    bool recovered = false;
};

Reference
referenceStep(const fs::path &dir, const nn::Classifier &base,
              const std::vector<net::WireIngest> &telemetry, size_t count,
              int conns)
{
    Reference ref;
    Service service(dir, base);
    ref.step = runStep(service, telemetry, count, kReferenceRate, conns);
    service.server->stop();
    service.server.reset();
    service.cloud.reset();
    ref.stateBytes = dirBytes(dir);
    ref.walBytes = dirBytes(dir, "wal.log");

    std::unique_ptr<sim::Cloud> cloud;
    {
        NAZAR_SPAN_BEGIN(span, "bench.persist.recover");
        cloud = std::make_unique<sim::Cloud>(service.config, base);
        ref.recoverMs = 1e3 * span.stop();
    }
    ref.recovered = cloud->totalIngested() == ref.step.acked;
    NAZAR_SPAN_BEGIN(span, "bench.persist.checkpoint");
    cloud->checkpoint();
    ref.checkpointMs = 1e3 * span.stop();
    return ref;
}

/**
 * The highest offered rate that holds the latency limit without a
 * growing backlog. Geometric bisection between the reference rate and
 * kTopFactor times it, then a linear interpolation of load() between
 * the last rate that held and the first that did not, for where it
 * crosses 1; the bracket alone would quantize the answer to its width.
 */
double
maxSustainedRate(const fs::path &dir, const nn::Classifier &base,
                 const std::vector<net::WireIngest> &telemetry,
                 double step_seconds, int conns, double reference_load,
                 Report &report)
{
    double lo = kReferenceRate, hi = kTopFactor * kReferenceRate;
    double lo_load = reference_load;
    double hi_load = std::numeric_limits<double>::infinity();
    if (lo_load > 1.0)
        return 0.0;
    for (int i = 0; i < kBisectionSteps; ++i) {
        double rate = std::sqrt(lo * hi);
        Service service(dir, base);
        size_t count = static_cast<size_t>(rate * step_seconds);
        Step s = runStep(service, telemetry, count, rate, conns);
        service.server->stop();
        printStep("ladder", s);
        report.gate(s.reconciled && s.missing == 0,
                    "ingest: ladder step acks every send");
        if (s.sustained()) {
            lo = rate;
            lo_load = s.load();
        } else {
            hi = rate;
            hi_load = s.load();
        }
    }
    double max_rate = lo;
    if (std::isfinite(hi_load))
        max_rate = lo + (hi - lo) * (1.0 - lo_load) / (hi_load - lo_load);
    std::printf("  max rate  %8.0f ev/s  (holds at %.0f, fails at %.0f)\n",
                max_rate, lo, hi);
    return max_rate;
}

} // namespace

void
runIngest(const Options &opts, Report &report)
{
    const int conns = static_cast<int>(std::clamp(
        std::thread::hardware_concurrency(), 1u, 4u));
    const fs::path root = fs::absolute(opts.workDir) /
                          ("ingest-" + std::to_string(::getpid()));
    const double ref_seconds = 0.08 * opts.seconds;
    const double ladder_seconds = 0.05 * opts.seconds;
    const size_t ref_count =
        static_cast<size_t>(kReferenceRate * ref_seconds);
    // Twice a reference step's sends, about a second of commits; at
    // least enough that one scheduling hiccup of the generator cannot
    // make a smoke-sized step look unsaturated.
    const size_t sat_count = std::max<size_t>(2 * ref_count, 8000);
    const size_t max_count = std::max(
        {ref_count, sat_count,
         static_cast<size_t>(kTopFactor * kReferenceRate * ladder_seconds)});
    // No cycle runs, so the base model is never used for inference;
    // the cloud only needs one of the right shape.
    nn::Classifier base(nn::Architecture::kResNet18, kFeatureDim, 10, 1);

    // ---- Set-up: telemetry + a started server ------------------------
    // Set-up time drifts with the shared host over seconds, so its
    // samples are spread over the run, one here and one after each
    // step pair, rather than taken back to back: their median is the
    // steadier for it.
    std::vector<double> setup_s;
    auto set_up = [&] {
        auto t0 = Clock::now();
        auto made = makeTelemetry(max_count, opts.seed);
        Service service(root / "setup", base);
        setup_s.push_back(secondsSince(t0));
        return made;
    };
    const std::vector<net::WireIngest> telemetry = set_up();
    std::printf("%zu messages; %d connections, limit p99.9 <= %.0f ms\n",
                max_count, conns, kLimitMs);

    // Warm-up: a short untimed step at the reference rate.
    {
        Service service(root / "warmup", base);
        runStep(service, telemetry, ref_count / 10, kReferenceRate, conns);
    }

    // ---- Step pairs: a reference step, then a saturating one ---------
    // Alternating them spreads both kinds over the whole run, so a
    // slow spell of the shared host weighs on each median alike.
    std::vector<Reference> refs;
    std::vector<double> p50, p999, recover_ms, committed, ceiling;
    size_t ref_attempted = 0, ref_acked = 0;
    for (int i = 0; i < kStepPairs; ++i) {
        // Reference rate: the latency metrics and the restart.
        refs.push_back(referenceStep(root / "reference", base, telemetry,
                                     ref_count, conns));
        const Reference &ref = refs.back();
        printStep("reference", ref.step);
        report.gate(ref.step.reconciled && ref.step.missing == 0,
                    "ingest: acksAccepted == sent on every connection");
        report.gate(ref.recovered,
                    "ingest: recovered totalIngested equals acks accepted");
        report.addAttempted(ref.step.attempted);
        report.addFailed(ref.step.attempted - ref.step.acked);
        ref_attempted += ref.step.attempted;
        ref_acked += ref.step.acked;
        p50.push_back(ref.step.p50);
        p999.push_back(ref.step.p999);
        recover_ms.push_back(ref.recoverMs);

        // Throughput: committed events/s when offered more than it takes.
        Service service(root / "saturation", base);
        Step s = runStep(service, telemetry, sat_count, kSaturationRate,
                         conns);
        service.server->stop();
        printStep("saturate", s);
        report.gate(s.reconciled && s.missing == 0,
                    "ingest: saturating step acks every send");
        report.gate(s.sendRate() >= kSaturationMargin * s.commitRate(),
                    "ingest: saturating step outruns the server");
        report.addAttempted(s.attempted);
        report.addFailed(s.attempted - s.acked);
        committed.push_back(s.commitRate());
        ceiling.push_back(static_cast<double>(s.attempted) / s.sendS);
        if (!opts.smoke)
            set_up();
    }
    std::printf("set-up (telemetry + server start): %.4f s median of "
                "%zu\n",
                median(setup_s), setup_s.size());

    EndToEnd e;
    e.setupS = median(setup_s);
    e.throughputPerS = median(committed);
    e.latencyP50Ms = median(p50);
    e.latencyTailMs = median(p999);
    e.qualityFrac = static_cast<double>(ref_acked) /
                    static_cast<double>(ref_attempted);
    reportEndToEnd(report, e);
    std::printf("ingest: ingest_p50_ms %.4f, ingest_p999_ms %.4f, "
                "saturated %.0f ev/s (generator ceiling %.0f ev/s), "
                "ingest_recover_ms %.3f, ingest_failed_frac %.6f\n",
                e.latencyP50Ms, e.latencyTailMs, e.throughputPerS,
                median(ceiling), median(recover_ms), 1.0 - e.qualityFrac);

    if (opts.trace) {
        // ---- Traced pass: the reference step again, with spans -------
        Reference traced;
        {
            TracedPass on;
            traced = referenceStep(root / "traced", base, telemetry,
                                   ref_count, conns);
        }
        printStep("traced", traced.step);
        report.gate(traced.step.reconciled && traced.step.missing == 0 &&
                        traced.recovered,
                    "ingest: traced reference step reconciles");
        const Step &s = traced.step;
        auto h = [&](const char *name) {
            return histDelta(s.before, s.after, name);
        };
        auto busy = [&](const char *name) { return h(name).sum; };
        auto count = [&](const char *name) {
            return static_cast<double>(h(name).count);
        };
        auto row = [&](const char *name, const char *parent) {
            return LayerRow{name, parent, count(name), busy(name)};
        };
        auto server_row = [&](const char *name) {
            return LayerRow{name, "bench.ingest.step", count(name),
                            busy(name), true};
        };
        std::vector<LayerRow> rows = {
            row("bench.ingest.step", ""),
            row("bench.ingest.pace", "bench.ingest.step"),
            row("bench.net.send", "bench.ingest.step"),
            row("bench.ingest.drain", "bench.ingest.step"),
            server_row("server.read.decode"),
            server_row("server.queue_wait"),
            server_row("server.encode"),
            server_row("persist.wal.sync"),
            server_row("server.ack"),
            server_row("persist.snapshot"),
            server_row("persist.snapshot_delta"),
        };
        double unattributed = printLayerTable("ingest", rows);

        std::map<std::string, double> v;
        v["net.client.send_s"] = busy("bench.net.send");
        v["net.client.send.count"] = count("bench.net.send");
        v["server.batches"] = static_cast<double>(s.server.batches);
        v["server.batch_mean"] =
            s.server.batches ? static_cast<double>(s.server.acksSent) /
                                   static_cast<double>(s.server.batches)
                             : 0.0;
        v["server.queue_wait.p50_ms"] =
            1e3 * h("server.queue_wait").quantile(0.5);
        v["server.queue_wait.p99_ms"] =
            1e3 * h("server.queue_wait").quantile(0.99);
        v["persist.wal.sync.p50_ms"] =
            1e3 * h("persist.wal.sync").quantile(0.5);
        v["persist.wal.sync.p99_ms"] =
            1e3 * h("persist.wal.sync").quantile(0.99);
        v["persist.snapshot.busy_s"] =
            busy("persist.snapshot") + busy("persist.snapshot_delta");
        v["persist.snapshot.count"] =
            count("persist.snapshot") + count("persist.snapshot_delta");
        v["persist.checkpoint_ms"] = traced.checkpointMs;
        v["persist.recover_ms"] = traced.recoverMs;
        v["persist.state_bytes"] = static_cast<double>(traced.stateBytes);
        v["persist.wal_bytes"] = static_cast<double>(traced.walBytes);
        v["load.lag_p99_ms"] = percentile(s.lagMs, 0.99);
        v["load.lag_max_ms"] = percentile(s.lagMs, 1.0);
        v["load.generator_ceiling_eps"] = median(ceiling);
        v["load.max_rate_eps"] = maxSustainedRate(
            root / "ladder", base, telemetry, ladder_seconds, conns,
            traced.step.load(), report);
        v["unattributed_frac"] = unattributed;
        v["trace_overhead_frac"] = s.sendS / refs.back().step.sendS - 1.0;
        reportLayers(report, v);
    }
    fs::remove_all(root);
}

} // namespace perfbench
