/**
 * @file
 * The repository benchmark program: one process that runs one workload
 * for a fixed time and prints every metric with its unit.
 *
 *   perfbench --workload dash_fir|debug_im2col
 *             --seed N --seconds S --trace 0|1
 *
 * Every workload is a kernel on the 4-chiplet `mcm4` platform with
 * medium chiplets, plus a client load on the monitor. A round runs the
 * kernel twice on fresh platforms, interleaved: once bare (no monitor:
 * the simulator core alone) and once monitored (monitor, HTTP server
 * and sampler attached, the client load running). Rounds repeat until
 * the time is up; timings are medians over the rounds the host did not
 * disturb, scaled to a nominal host speed. See README.md for why each
 * workload exists and which layer each metric belongs to.
 *
 * With --trace 1 the rounds are instead: bare untraced, bare with the
 * instrumentation profiler on, and monitored with a probe thread that
 * times calls into each monitor layer. Those runs give the per-layer
 * metrics; end-to-end metrics always come from untraced runs.
 *
 * The last line of stdout is the result object; lines before it are
 * human-readable detail, plus one "meta" JSON line (calibration, build
 * type, checks).
 */

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "rtm/monitor.hh"
#include "sim/prof.hh"
#include "stats.hh"
#include "web/client.hh"
#include "workloads/workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace akita;
using perfbench::median;
using perfbench::summarize;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class KernelKind
{
    Fir,
    Im2Col,
};

enum class LoadKind
{
    /** Many 1 Hz dashboards polling the cacheable hot reads. */
    OpenDashboard,
    /** A user clicking through components: uncached, lock-taking. */
    ClosedDebugger,
};

struct Workload
{
    const char *name;
    KernelKind kernel;
    LoadKind load;
};

const Workload kWorkloads[] = {
    {"dash_fir", KernelKind::Fir, LoadKind::OpenDashboard},
    {"debug_im2col", KernelKind::Im2Col, LoadKind::ClosedDebugger},
};

// Kernel sizes: one bare FIR run takes ~0.4 s and one im2col run ~0.6 s
// on a 4-core x86 host, long enough that timer and scheduler jitter are
// small against the run, short enough for 25-50 rounds in a 40 s run.
constexpr std::uint32_t kFirSamples = 1u << 18;
constexpr std::uint32_t kIm2ColBatch = 32;

// Open loop: open tabs of the embedded dashboard (rtm/frontend.cc).
// Its tick runs once a second and fetches, all at once, the targets
// below, with the buffer analyzer as the right-hand panel (its default).
// The component tree is fetched once per page load, before the run, and
// not again. /api/status, the tick's fifth target, is left out: on the
// serial engine it reads SerialEngine::queueLength(), which takes the
// engine mutex without announcing itself to the event loop's handoff,
// so each such request blocks for a random share of the whole run and
// every queued request behind it waits too. Add it back when that read
// no longer starves.
//
// The tab count is chosen for sample count, not taken from the paper:
// its Fig. 7 browser scenarios have one browser, which with this
// dashboard makes about 5 requests/s, too few for a latency percentile
// per run. 150 tabs x 4 targets at 1 Hz is 600 requests/s.
constexpr int kDashTabs = 150;
constexpr double kDashPeriodS = 1.0;
const char *const kDashTargets[] = {
    "/api/resources",
    "/api/progress",
    "/api/buffers?sort=percent&top=30",
    "/api/monitor/all",
};
constexpr int kNumDashTargets = 4;

// Closed loop: two keep-alive connections clicking through the component
// tree, as the dashboard's detail panel does. The 2 ms think time is
// chosen for sample count, not measured: the paper's active-browser
// scenario clicks once a second.
constexpr int kDebugConnections = 2;
constexpr double kDebugThinkS = 0.002;

// Reference time of hostReference() on an uncontended core of the
// 4-core x86 host this benchmark was tuned on. Normalized host times are
// "seconds on a host where the reference takes this long".
constexpr double kRefNominalS = 0.011;

// A single run takes well under a second; one still running after this
// long is hung (the watchdog stops it and the run fails).
constexpr int kRunTimeoutS = 20;

// Targets whose cached and x-akita-no-cache bodies must agree byte for
// byte once the simulation is quiet. /metrics is left out: the sampler
// keeps appending passes after the run, so two reads legitimately
// differ.
const char *const kStaticTargets[] = {
    "/api/components",
    "/api/buffers?sort=percent&top=30",
    "/api/progress",
};

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

gpu::KernelDescriptor
makeKernel(KernelKind kind)
{
    if (kind == KernelKind::Fir) {
        workloads::FirParams p;
        p.numSamples = kFirSamples;
        return workloads::makeFir(p);
    }
    workloads::Im2ColParams p;
    p.batch = kIm2ColBatch;
    return workloads::makeIm2Col(p);
}

int
hostThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

rtm::MonitorConfig
monitorConfig()
{
    rtm::MonitorConfig cfg;
    cfg.announceUrl = false;
    // Leave a core for the simulation thread and one for the clients.
    cfg.httpWorkers = std::max(1, hostThreads() - 2);
    return cfg;
}

// ---------------------------------------------------------------------
// Host calibration
// ---------------------------------------------------------------------

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Effective parallelism the host delivers right now: nproc threads spin
 * for a fixed wall window and their summed CPU time is divided by the
 * window. An idle 4-core host reads ~4; a throttled one reads ~1.
 */
double
calibrate()
{
    constexpr double kWindowS = 0.02;
    const int n = hostThreads();
    std::vector<double> cpu(static_cast<std::size_t>(n), 0.0);
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    for (int i = 0; i < n; i++) {
        threads.emplace_back([&cpu, i, start]() {
            double c0 = threadCpuSeconds();
            volatile std::uint64_t sink = 0;
            while (since(start) < kWindowS)
                sink = sink + 1;
            cpu[static_cast<std::size_t>(i)] = threadCpuSeconds() - c0;
        });
    }
    for (auto &t : threads)
        t.join();
    const double wall = since(start);
    double sum = 0;
    for (double c : cpu)
        sum += c;
    return wall > 0 ? sum / wall : 0.0;
}

/**
 * Restarts the kernel's peak-RSS tracking for this process, so the next
 * peakRssMb() reading covers only what ran since. Where the kernel
 * refuses, readings stay the process-wide peak.
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident memory (VmHWM) since the last reset, in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0;
            status >> kb;
            return kb / 1024.0;
        }
    }
    return 0;
}

/**
 * Host-speed reference: a fixed, benchmark-owned loop of hash-map
 * probes, inserts and erases over a ~4 MB table, the same kind of work
 * the simulator does. On a shared host the speed of one core swings by
 * up to 2x within minutes (co-tenants contending for caches and memory
 * bandwidth; thread CPU time equals wall time, so it is not
 * descheduling). Timing this loop next to each bare run and scaling the
 * round's host times by kRefNominalS / reference cancels most of that
 * swing. Returns seconds.
 */
double
hostReference()
{
    static std::unordered_map<std::uint64_t, std::uint64_t> table;
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull, sum = 0;
    for (int i = 0; i < 300000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t k = x & ((1u << 17) - 1);
        auto it = table.find(k);
        if (it == table.end())
            table.emplace(k, x);
        else if ((x & 3) == 0)
            table.erase(it);
        else
            sum += it->second;
    }
    static volatile std::uint64_t sink;
    sink = sink + sum;
    return since(t0);
}

/**
 * Host-stall detector (after jHiccup): a thread that sleeps 1 ms at a
 * time while a bare kernel runs and records the latest wake-up. A bare
 * run keeps one core busy, so on a 4-core host a wake-up several ms
 * late means the host did not run the process at all.
 */
class HiccupMeter
{
  public:
    HiccupMeter() : thread_([this]() { loop(); }) {}
    ~HiccupMeter() { stop(); }

    HiccupMeter(const HiccupMeter &) = delete;
    HiccupMeter &operator=(const HiccupMeter &) = delete;

    /** Stops the thread; returns the largest oversleep seen, in ms. */
    double
    stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        return maxLateMs_;
    }

  private:
    void
    loop()
    {
        constexpr auto kNap = std::chrono::milliseconds(1);
        while (!stop_.load()) {
            const auto t = Clock::now();
            std::this_thread::sleep_for(kNap);
            const double late =
                std::chrono::duration<double, std::milli>(Clock::now() - t -
                                                          kNap)
                    .count();
            maxLateMs_ = std::max(maxLateMs_, late);
        }
    }

    std::atomic<bool> stop_{false};
    double maxLateMs_ = 0; // Written by the thread, read after join.
    std::thread thread_;
};

// ---------------------------------------------------------------------
// Simulated statistics (must repeat exactly on the serial engine)
// ---------------------------------------------------------------------

using SimStats = std::map<std::string, std::uint64_t>;

SimStats
collectStats(gpu::Platform &plat)
{
    SimStats s;
    s["sim_time_ps"] = plat.engine().now();
    s["sim.events"] = plat.engine().eventCount();
    std::uint64_t sends = 0, rejects = 0, ticks = 0, useful = 0;
    std::uint64_t cuTicks = 0, cuUseful = 0, cuMemReqs = 0, cuWGs = 0;
    std::uint64_t l1h = 0, l1m = 0, l2h = 0, l2m = 0, ath = 0, atm = 0;
    std::uint64_t dramR = 0, dramW = 0, rdmaOut = 0, netMsgs = 0;
    for (sim::Component *c : plat.components()) {
        for (const auto &p : c->ports()) {
            sends += p->totalSent();
            rejects += p->totalSendRejections();
        }
        if (auto *tc = dynamic_cast<sim::TickingComponent *>(c)) {
            ticks += tc->totalTicks();
            useful += tc->progressTicks();
        }
        if (auto *cu = dynamic_cast<gpu::ComputeUnit *>(c)) {
            cuTicks += cu->totalTicks();
            cuUseful += cu->progressTicks();
            cuMemReqs += cu->memReqsIssued();
            cuWGs += cu->completedWGs();
        } else if (auto *l1 = dynamic_cast<mem::Cache *>(c)) {
            l1h += l1->directory().hits();
            l1m += l1->directory().misses();
        } else if (auto *l2 = dynamic_cast<mem::L2Cache *>(c)) {
            l2h += l2->directory().hits();
            l2m += l2->directory().misses();
        } else if (auto *at = dynamic_cast<mem::AddressTranslator *>(c)) {
            ath += at->tlb().hits();
            atm += at->tlb().misses();
        } else if (auto *dram = dynamic_cast<mem::DramController *>(c)) {
            dramR += dram->totalReads();
            dramW += dram->totalWrites();
        } else if (auto *rdma = dynamic_cast<mem::RdmaEngine *>(c)) {
            rdmaOut += rdma->totalForwardedOut();
            // Messages injected into the inter-chiplet network.
            netMsgs += rdma->toOutsidePort()->totalSent() +
                       rdma->toOutsideRspPort()->totalSent();
        }
    }
    s["sim.port_sends"] = sends;
    s["sim.port_rejects"] = rejects;
    s["sim.ticks"] = ticks;
    s["sim.useful_ticks"] = useful;
    s["gpu.cu.ticks"] = cuTicks;
    s["gpu.cu.useful_ticks"] = cuUseful;
    s["gpu.cu.mem_reqs"] = cuMemReqs;
    s["gpu.cu.completed_wgs"] = cuWGs;
    s["mem.l1.hits"] = l1h;
    s["mem.l1.misses"] = l1m;
    s["mem.l2.hits"] = l2h;
    s["mem.l2.misses"] = l2m;
    s["mem.at.hits"] = ath;
    s["mem.at.misses"] = atm;
    s["mem.dram.reads"] = dramR;
    s["mem.dram.writes"] = dramW;
    s["mem.rdma.forwarded_out"] = rdmaOut;
    s["net.msgs"] = netMsgs;
    return s;
}

/** Names of counters that differ between @p a and @p b. */
std::vector<std::string>
diffStats(const SimStats &a, const SimStats &b)
{
    std::vector<std::string> out;
    for (const auto &kv : a) {
        auto it = b.find(kv.first);
        if (it == b.end() || it->second != kv.second)
            out.push_back(kv.first);
    }
    return out;
}

// ---------------------------------------------------------------------
// HTTP clients
// ---------------------------------------------------------------------

std::string
urlEncode(const std::string &s)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    for (unsigned char c : s) {
        bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                     c == '-' || c == '~';
        if (plain) {
            out += static_cast<char>(c);
        } else {
            out += '%';
            out += hex[c >> 4];
            out += hex[c & 15];
        }
    }
    return out;
}

/** Requests made by one client thread. */
struct ReqLog
{
    std::vector<double> latencyMs;
    std::vector<double> lagMs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t bodyBytes = 0;
    std::vector<std::string> failures; // First few, for the report.

    void
    fail(const std::string &why)
    {
        failed++;
        if (failures.size() < 5)
            failures.push_back(why);
    }

    void
    merge(const ReqLog &o)
    {
        latencyMs.insert(latencyMs.end(), o.latencyMs.begin(),
                         o.latencyMs.end());
        lagMs.insert(lagMs.end(), o.lagMs.begin(), o.lagMs.end());
        attempted += o.attempted;
        failed += o.failed;
        bodyBytes += o.bodyBytes;
        for (const auto &f : o.failures) {
            if (failures.size() < 5)
                failures.push_back(f);
        }
    }
};

bool
isJsonTarget(const std::string &target)
{
    return target.rfind("/api/", 0) == 0;
}

/**
 * Checks one response: 200, and a body that parses when the endpoint
 * serves JSON. Counts the attempt and any failure in @p log.
 */
bool
checkResponse(const std::string &target,
              const std::optional<web::ParsedResponse> &r, ReqLog &log,
              json::Json *parsed = nullptr)
{
    log.attempted++;
    if (!r) {
        log.fail(target + ": no response");
        return false;
    }
    if (r->status != 200) {
        log.fail(target + ": status " + std::to_string(r->status));
        return false;
    }
    log.bodyBytes += r->body.size();
    if (!isJsonTarget(target)) {
        if (r->body.empty()) {
            log.fail(target + ": empty body");
            return false;
        }
        return true;
    }
    try {
        json::Json j = json::Json::parse(r->body);
        if (parsed != nullptr)
            *parsed = std::move(j);
    } catch (const std::exception &e) {
        log.fail(target + ": bad JSON: " + e.what());
        return false;
    }
    return true;
}

/** Client load attached to one monitored run. */
class LoadGen
{
  public:
    LoadGen(const Workload &w, std::uint16_t port, std::uint64_t seed,
            const std::vector<std::string> &componentNames,
            Clock::time_point go)
        : port_(port), go_(go)
    {
        if (w.load == LoadKind::OpenDashboard)
            startOpen(seed);
        else
            startClosed(seed, componentNames);
    }

    ~LoadGen() { stop(); }

    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    /** Stops issuing requests and joins the client threads. */
    void
    stop()
    {
        if (!stop_.load())
            stopAt_ = Clock::now();
        stop_.store(true);
        for (auto &t : threads_) {
            if (t.joinable())
                t.join();
        }
    }

    /** Merged log; call after stop(). */
    ReqLog
    log() const
    {
        ReqLog all;
        for (const auto &l : logs_)
            all.merge(*l);
        return all;
    }

  private:
    void
    startOpen(std::uint64_t seed)
    {
        // 20 s covers any run; requests due after the run ends are not
        // sent.
        schedule_ = perfbench::dashboardSchedule(
            seed, kDashTabs, kNumDashTargets, kDashPeriodS, 20.0);
        const int senders = std::min(4, hostThreads());
        for (int j = 0; j < senders; j++) {
            logs_.push_back(std::make_unique<ReqLog>());
            ReqLog *log = logs_.back().get();
            threads_.emplace_back([this, j, senders, log]() {
                web::PersistentClient client("127.0.0.1", port_);
                for (std::size_t i = static_cast<std::size_t>(j);
                     i < schedule_.size();
                     i += static_cast<std::size_t>(senders)) {
                    const auto due =
                        go_ + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      schedule_[i].first));
                    while (!stop_.load() && Clock::now() < due) {
                        auto left = due - Clock::now();
                        std::this_thread::sleep_for(std::min<
                            Clock::duration>(left,
                                             std::chrono::milliseconds(5)));
                    }
                    // Requests that fell due while the simulation ran
                    // are still sent, late, and timed from their due
                    // time; later ones are not.
                    if (stop_.load() && due >= stopAt_)
                        break;
                    const std::string target =
                        kDashTargets[schedule_[i].second];
                    const auto sent = Clock::now();
                    auto r = client.get(target);
                    const auto done = Clock::now();
                    if (!checkResponse(target, r, *log))
                        continue;
                    auto ms = [this](Clock::time_point t) {
                        return std::chrono::duration<double, std::milli>(
                                   t - go_)
                            .count();
                    };
                    auto s = perfbench::openLoopAccount(
                        ms(due), ms(sent), ms(done));
                    log->latencyMs.push_back(s.latency);
                    log->lagMs.push_back(s.lateness);
                }
            });
        }
    }

    void
    startClosed(std::uint64_t seed, const std::vector<std::string> &names)
    {
        for (int j = 0; j < kDebugConnections; j++) {
            logs_.push_back(std::make_unique<ReqLog>());
            ReqLog *log = logs_.back().get();
            threads_.emplace_back([this, j, seed, names, log]() {
                std::mt19937_64 rng(seed * 7919 + static_cast<unsigned>(j));
                std::vector<std::string> order = names;
                std::shuffle(order.begin(), order.end(), rng);
                web::PersistentClient client("127.0.0.1", port_);
                const std::string me = "dbg" + std::to_string(j);
                std::this_thread::sleep_until(go_);
                auto intended = Clock::now();
                std::size_t next = 0;
                for (std::uint64_t i = 0; !stop_.load(); i++) {
                    const std::string &comp = order[next % order.size()];
                    const auto sent = Clock::now();
                    std::optional<web::ParsedResponse> r;
                    std::string target;
                    if (i % 16 == 15) {
                        // Track then untrack one RDMA transaction
                        // counter: the write path, kept under the
                        // five-series limit by pairing.
                        const std::string chip =
                            "GPU[" + std::to_string(rng() % 4) + "].RDMA";
                        target = "/api/monitor/track?component=" +
                                 urlEncode(chip) + "&field=transactions";
                        r = client.postChunked(target, "{}");
                        json::Json j;
                        if (checkResponse(target, r, *log, &j)) {
                            target = "/api/monitor/untrack?id=" +
                                     std::to_string(j.getInt("id"));
                            r = client.postChunked(target, "{}");
                            checkResponse(target, r, *log);
                        }
                    } else if (i % 8 == 7) {
                        target = "/api/throughput?component=" +
                                 urlEncode(comp) + "&client=" + me;
                        r = client.get(target);
                        checkResponse(target, r, *log);
                    } else {
                        target =
                            "/api/v1/component?name=" + urlEncode(comp);
                        next++;
                        r = client.get(target);
                        checkResponse(target, r, *log);
                    }
                    const auto done = Clock::now();
                    log->latencyMs.push_back(
                        std::chrono::duration<double, std::milli>(done -
                                                                  sent)
                            .count());
                    log->lagMs.push_back(std::max(
                        0.0, std::chrono::duration<double, std::milli>(
                                 sent - intended)
                                 .count()));
                    intended =
                        done + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       kDebugThinkS));
                    std::this_thread::sleep_until(intended);
                }
            });
        }
    }

    std::uint16_t port_;
    Clock::time_point go_;
    std::vector<std::pair<double, int>> schedule_;
    /** When stop() was first called; published by the store to stop_. */
    Clock::time_point stopAt_;
    std::atomic<bool> stop_{false};
    std::vector<std::unique_ptr<ReqLog>> logs_;
    // Declared last: the threads use every member above.
    std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------
// Probe thread (traced monitored runs)
// ---------------------------------------------------------------------

struct ProbeLog
{
    std::vector<double> lockWaitUs;
    std::vector<double> snapshotUs;
    std::vector<double> dumpUs;
    std::vector<double> bufferUs;
    std::vector<double> statusUs;
    std::vector<double> samplePassUs;
    std::vector<double> progressRttUs;
    std::uint64_t failed = 0;
};

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/**
 * Times the lock-taking monitor views until @p stop is set: an empty
 * withEngineLock (the wait any view pays), a component snapshot and its
 * JSON dump, and the buffer ranking.
 */
void
lockProbeLoop(rtm::Monitor &mon, const std::vector<std::string> &names,
              const std::atomic<bool> &stop, ProbeLog &out)
{
    for (std::size_t i = 0; !stop.load(); i++) {
        auto t = Clock::now();
        mon.withEngineLock([]() {});
        out.lockWaitUs.push_back(usSince(t));

        t = Clock::now();
        json::Json snap = mon.componentSnapshot(names[i % names.size()]);
        out.snapshotUs.push_back(usSince(t));
        t = Clock::now();
        std::string body = snap.dump();
        out.dumpUs.push_back(usSince(t));
        if (body.size() < 2)
            out.failed++;

        t = Clock::now();
        auto levels = mon.bufferLevels(rtm::BufferSort::ByPercent, 50);
        out.bufferUs.push_back(usSince(t));

        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/**
 * Times the views that read engine state without announcing a lock
 * wait (status, a metrics sampling pass) and the smallest HTTP round
 * trip. Kept off the lock probe's thread so a stall here cannot starve
 * the lock-wait samples.
 */
void
viewProbeLoop(rtm::Monitor &mon, std::uint16_t port,
              const std::atomic<bool> &stop, ProbeLog &out)
{
    web::PersistentClient client("127.0.0.1", port);
    for (std::size_t i = 0; !stop.load(); i++) {
        auto t = Clock::now();
        json::Json st = mon.status();
        out.statusUs.push_back(usSince(t));

        if (i % 8 == 0) {
            t = Clock::now();
            mon.metricsSamplePass();
            out.samplePassUs.push_back(usSince(t));
        }

        t = Clock::now();
        auto r = client.get("/api/v1/progress");
        out.progressRttUs.push_back(usSince(t));
        if (!r || r->status != 200)
            out.failed++;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

// ---------------------------------------------------------------------
// Profiler folding and the dispatch model (traced bare runs)
// ---------------------------------------------------------------------

/** Layer key of a component, for folding its "<name>::tick" entry. */
const char *
layerOf(sim::Component *c)
{
    if (dynamic_cast<gpu::ComputeUnit *>(c))
        return "gpu.cu";
    if (dynamic_cast<gpu::CommandProcessor *>(c))
        return "gpu.cp";
    if (dynamic_cast<gpu::Driver *>(c))
        return "gpu.driver";
    if (dynamic_cast<mem::Cache *>(c))
        return "mem.l1";
    if (dynamic_cast<mem::L2Cache *>(c))
        return "mem.l2";
    if (dynamic_cast<mem::AddressTranslator *>(c))
        return "mem.at";
    if (dynamic_cast<mem::ReorderBuffer *>(c))
        return "mem.rob";
    if (dynamic_cast<mem::DramController *>(c))
        return "mem.dram";
    if (dynamic_cast<mem::RdmaEngine *>(c))
        return "mem.rdma";
    if (dynamic_cast<net::Switch *>(c))
        return "net";
    return "other";
}

const char *const kFoldedLayers[] = {
    "gpu.cu",  "gpu.cp",   "gpu.driver", "mem.l1",   "mem.l2",
    "mem.at",  "mem.rob",  "mem.dram",   "mem.rdma", "net",
    "sim.conn", "other",
};

/** Per-layer handler self seconds from one profiled run. */
std::map<std::string, double>
foldProfile(gpu::Platform &plat, const sim::ProfSnapshot &snap)
{
    std::map<std::string, std::string> layer;
    for (sim::Component *c : plat.components())
        layer[c->name() + "::tick"] = layerOf(c);
    for (sim::Connection *conn : plat.connections()) {
        layer[conn->connectionName() + "::deliver"] =
            dynamic_cast<net::SwitchedNetwork *>(conn) ? "net"
                                                       : "sim.conn";
    }
    std::map<std::string, double> out;
    for (const char *l : kFoldedLayers)
        out[l] = 0;
    for (const auto &e : snap.entries) {
        auto it = layer.find(e.name);
        out[it == layer.end() ? "other" : it->second] +=
            static_cast<double>(e.selfNs) * 1e-9;
    }
    return out;
}

/**
 * Self-rescheduling no-op handlers: the engine's per-event cost outside
 * handler bodies (queue pop, dispatch, profiler bookkeeping), measured
 * in-process like bench_micro's engine-throughput primitive.
 */
class NoopTicker : public sim::EventHandler
{
  public:
    NoopTicker(sim::Engine *engine, std::int64_t *left)
        : engine_(engine), left_(left), name_("perfbench.noop::tick")
    {
    }

    void
    handle(sim::Event &ev) override
    {
        if (--*left_ > 0)
            engine_->schedule(
                std::make_unique<sim::Event>(ev.time() + 1000, this));
    }

    sim::NameRef profName() const override { return name_; }

  private:
    sim::Engine *engine_;
    std::int64_t *left_;
    sim::NameRef name_;
};

/** Host seconds per event spent outside handler self time (profiled). */
double
dispatchSecondsPerEvent()
{
    constexpr int kTickers = 128;
    constexpr std::int64_t kEvents = 400000;
    std::vector<double> perEvent;
    for (int rep = 0; rep < 5; rep++) {
        sim::SerialEngine eng;
        std::int64_t left = kEvents;
        std::vector<std::unique_ptr<NoopTicker>> tickers;
        for (int i = 0; i < kTickers; i++) {
            tickers.push_back(std::make_unique<NoopTicker>(&eng, &left));
            eng.schedule(std::make_unique<sim::Event>(
                static_cast<sim::VTime>(i % 4), tickers.back().get()));
        }
        auto &prof = sim::Profiler::instance();
        prof.setEnabled(false);
        prof.setEnabled(true);
        const auto t0 = Clock::now();
        eng.run();
        const double wall = since(t0);
        auto snap = prof.snapshot(1u << 20);
        prof.setEnabled(false);
        double self = 0;
        for (const auto &e : snap.entries)
            self += static_cast<double>(e.selfNs) * 1e-9;
        const auto events = static_cast<double>(eng.eventCount());
        perEvent.push_back((wall - self) / events);
    }
    return median(perEvent);
}

// ---------------------------------------------------------------------
// One simulation
// ---------------------------------------------------------------------

struct TraceCounter
{
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> ops{0};
};

/** What one simulation produced. */
struct RunResult
{
    double setupS = 0;
    double buildS = 0; // Platform constructor alone.
    double wallS = 0;
    /** Host reference time around a bare run (see hostReference). */
    double refS = 0;
    bool completed = false;
    /** Why the watchdog stopped the run; empty when it was not needed. */
    std::string hang;
    /** Longest host stall while a bare kernel ran (HiccupMeter), ms. */
    double hiccupMs = 0;
    SimStats stats;
    std::uint64_t numWGs = 0;

    // Traced bare runs.
    std::map<std::string, double> layerSelfS;
    double traceGenS = 0;
    std::uint64_t traceOps = 0;

    // Monitored runs.
    ReqLog req;
    std::uint64_t served = 0;
    std::uint64_t cacheHits = 0, cacheMisses = 0, cacheBuilds = 0;
    std::uint64_t cacheCoalesced = 0;
    std::vector<std::string> cacheMismatches;
    ProbeLog probe;
};

enum class Mode
{
    Bare,
    BareTraced,
    Monitored,
    MonitoredProbed,
};

std::vector<std::string>
componentNames(gpu::Platform &plat, bool withPortsOnly)
{
    std::vector<std::string> out;
    for (sim::Component *c : plat.components()) {
        if (!withPortsOnly || !c->ports().empty())
            out.push_back(c->name());
    }
    return out;
}

RunResult
runOnce(const Workload &w, Mode mode, std::uint64_t seed)
{
    RunResult res;
    const bool monitored =
        mode == Mode::Monitored || mode == Mode::MonitoredProbed;
    const bool traced = mode == Mode::BareTraced;

    const auto t0 = Clock::now();
    gpu::Platform plat(gpu::PlatformConfig::mcm4(gpu::GpuConfig::medium()));
    res.buildS = since(t0);
    gpu::KernelDescriptor kernel = makeKernel(w.kernel);
    res.numWGs = kernel.numWorkGroups;
    auto traceCounter = std::make_shared<TraceCounter>();
    if (traced) {
        // Time the benchmark-owned trace generator: it runs inside the
        // CU's tick, so its share is split out of the CU's self time.
        auto inner = kernel.trace;
        kernel.trace = [inner, traceCounter](std::uint32_t wg,
                                             std::uint32_t wf) {
            const auto s = Clock::now();
            auto ops = inner(wg, wf);
            traceCounter->ns.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - s)
                        .count()),
                std::memory_order_relaxed);
            traceCounter->ops.fetch_add(ops.size(),
                                        std::memory_order_relaxed);
            return ops;
        };
    }

    std::unique_ptr<rtm::Monitor> mon;
    if (monitored) {
        mon = std::make_unique<rtm::Monitor>(monitorConfig());
        mon->registerEngine(&plat.engine());
        mon->registerComponents(plat.components());
        plat.driver().setProgressListener(mon.get());
        if (!mon->startServer()) {
            std::fprintf(stderr, "perfbench: monitor server failed\n");
            return res;
        }
    }
    plat.launchKernel(&kernel);
    res.setupS = since(t0);

    std::unique_ptr<LoadGen> load;
    std::atomic<bool> probeStop{false};
    std::thread lockProbe, viewProbe;
    ProbeLog viewLog;
    const auto go = Clock::now() + std::chrono::milliseconds(5);
    if (monitored) {
        load = std::make_unique<LoadGen>(w, mon->serverPort(), seed,
                                         componentNames(plat, true), go);
        if (mode == Mode::MonitoredProbed) {
            lockProbe = std::thread([&]() {
                lockProbeLoop(*mon, componentNames(plat, false),
                              probeStop, res.probe);
            });
            viewProbe = std::thread([&]() {
                viewProbeLoop(*mon, mon->serverPort(), probeStop, viewLog);
            });
        }
    }
    std::this_thread::sleep_until(go);

    // Only bare runs time the reference: no monitor threads exist then,
    // so a change that loads the host from inside the program cannot
    // slow the reference and hide its own cost.
    const double refBefore = mode == Mode::Bare ? hostReference() : 0;
    auto &prof = sim::Profiler::instance();
    if (traced) {
        prof.setEnabled(false);
        prof.setEnabled(true); // Enabling resets the tables.
    }
    // A run that outlives the watchdog is stopped and reported as not
    // completed, with the engine state that says why.
    std::mutex wdMu;
    std::condition_variable wdCv;
    bool runDone = false;
    std::thread watchdog([&]() {
        std::unique_lock<std::mutex> lk(wdMu);
        if (wdCv.wait_for(lk, std::chrono::seconds(kRunTimeoutS),
                          [&]() { return runDone; }))
            return;
        sim::Engine &e = plat.engine();
        res.hang = "stopped after " + std::to_string(kRunTimeoutS) +
                   " s: events " + std::to_string(e.eventCount()) +
                   ", now " + std::to_string(e.now()) + " ps, " +
                   (e.drainedWaiting() ? "queue drained" : "queue busy") +
                   ", kernels " +
                   (plat.driver().allKernelsDone() ? "done" : "pending");
        e.stop();
    });
    // Stalls are metered on bare runs only: there the process leaves
    // cores idle, so a late wake-up is the host's doing. In a monitored
    // run the program's own threads could delay the meter and so flag,
    // and drop, the rounds a slower monitor made.
    std::optional<HiccupMeter> hiccups;
    if (mode == Mode::Bare)
        hiccups.emplace();
    const auto runStart = Clock::now();
    auto status = plat.run();
    res.wallS = since(runStart);
    if (hiccups)
        res.hiccupMs = hiccups->stop();
    {
        std::lock_guard<std::mutex> lk(wdMu);
        runDone = true;
    }
    wdCv.notify_all();
    watchdog.join();
    if (mode == Mode::Bare)
        res.refS = 0.5 * (refBefore + hostReference());
    res.completed = status == gpu::Platform::RunStatus::Completed;
    if (traced) {
        auto snap = prof.snapshot(1u << 20);
        prof.setEnabled(false);
        res.layerSelfS = foldProfile(plat, snap);
        res.traceGenS = static_cast<double>(traceCounter->ns.load()) * 1e-9;
        res.traceOps = traceCounter->ops.load();
        res.layerSelfS["gpu.cu"] -= res.traceGenS;
    }

    if (monitored) {
        load->stop();
        probeStop.store(true);
        if (lockProbe.joinable())
            lockProbe.join();
        if (viewProbe.joinable())
            viewProbe.join();
        res.probe.statusUs = std::move(viewLog.statusUs);
        res.probe.samplePassUs = std::move(viewLog.samplePassUs);
        res.probe.progressRttUs = std::move(viewLog.progressRttUs);
        res.probe.failed += viewLog.failed;
        res.req = load->log();
        // Serving correctness once quiet: wait out the response cache's
        // TTL floor, then cached and uncached bodies must match.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            mon->config().cacheTtlFloorMs + 20));
        web::PersistentClient client("127.0.0.1", mon->serverPort());
        for (const char *target : kStaticTargets) {
            auto a = client.get(target);
            auto b = client.get(target, {{"x-akita-no-cache", "1"}});
            bool ok = checkResponse(target, a, res.req);
            ok = checkResponse(target, b, res.req) && ok;
            if (ok && a->body != b->body) {
                res.cacheMismatches.push_back(target);
                res.req.fail(std::string(target) +
                             ": cached body differs from uncached");
            }
        }
        res.served = mon->requestsServed();
        auto &cache = mon->responseCache();
        res.cacheHits = cache.hitCount();
        res.cacheMisses = cache.missCount();
        res.cacheBuilds = cache.buildCount();
        res.cacheCoalesced = cache.coalesceCount();
        mon->stopServer();
    }

    res.stats = collectStats(plat);
    return res;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else
            return false;
    }
    return argc % 2 == 1 && findWorkload(a.workload) != nullptr &&
           a.seconds > 0;
}

/** Calibration readings around one round. */
struct Calib
{
    double before = 0;
    double after = 0;

    /** Readings more than 25% apart: the host changed under the round. */
    bool
    flagged() const
    {
        double hi = std::max(before, after);
        return hi > 0 && std::fabs(before - after) / hi > 0.25;
    }
};

// A round whose bare run saw the host stall the process this long is
// flagged (see HiccupMeter).
constexpr double kHiccupLimitMs = 2.0;

/**
 * Rounds the timings are taken over: the unflagged ones, unless they are
 * fewer than 3 or hold fewer than @p minSamples requests (too few for a
 * p99); then every round. Flags come only from readings the monitor
 * cannot move (calibration with no monitor alive, bare-run stalls), so
 * a slower monitor cannot drop its own rounds.
 */
std::vector<std::size_t>
steadyRounds(const std::vector<bool> &flagged,
             const std::vector<std::size_t> &samples, std::size_t minSamples)
{
    std::vector<std::size_t> kept;
    std::size_t keptSamples = 0;
    for (std::size_t i = 0; i < flagged.size(); i++) {
        if (!flagged[i]) {
            kept.push_back(i);
            keptSamples += samples[i];
        }
    }
    if (kept.size() < 3 || keptSamples < minSamples) {
        kept.resize(flagged.size());
        std::iota(kept.begin(), kept.end(), std::size_t{0});
    }
    return kept;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload "
                     "dash_fir|debug_im2col --seed N "
                     "--seconds S --trace 0|1\n");
        return 2;
    }
    const Workload &w = *findWorkload(args.workload);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    bool correct = true;
    std::vector<std::string> notes;
    auto problem = [&](const std::string &msg) {
        correct = false;
        notes.push_back(msg);
        std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    };

    // Warm the allocator, event pool and page cache once, untimed.
    runOnce(w, Mode::Bare, args.seed);
    runOnce(w, Mode::Monitored, args.seed);

    std::optional<SimStats> reference;
    std::vector<std::string> passiveMismatch;
    auto checkStats = [&](const RunResult &r, const char *what,
                          bool monitored) {
        if (!r.completed) {
            problem(std::string(what) + " run did not complete" +
                    (r.hang.empty() ? "" : " (" + r.hang + ")"));
            return;
        }
        if (r.stats.at("gpu.cu.completed_wgs") != r.numWGs) {
            problem(std::string(what) + " completed " +
                    std::to_string(r.stats.at("gpu.cu.completed_wgs")) +
                    " of " + std::to_string(r.numWGs) + " work-groups");
        }
        if (!reference) {
            reference = r.stats;
            return;
        }
        auto diff = diffStats(*reference, r.stats);
        if (diff.empty())
            return;
        if (monitored) {
            // Monitoring must be passive; report by name, do not fail.
            for (const auto &d : diff) {
                if (std::find(passiveMismatch.begin(),
                              passiveMismatch.end(),
                              d) == passiveMismatch.end())
                    passiveMismatch.push_back(d);
            }
            return;
        }
        std::string names;
        for (const auto &d : diff)
            names += " " + d;
        problem(std::string(what) + " simulated statistics differ:" +
                names);
    };

    std::vector<Calib> cal;
    std::vector<bool> flagged;
    std::vector<double> hiccupMs;
    std::vector<double> coreWall, monWall, monSetup, ratio;
    std::vector<double> rawCoreWall, rawMonWall, refS;
    std::vector<double> coreEvents, simPs, buildS;
    std::vector<double> tracedWall, untracedWall;
    std::map<std::string, std::vector<double>> layerSelf;
    std::vector<double> traceGenS, traceOps, unexplainedS, unexplainedFrac;
    std::vector<double> dispatchS, peakRss;
    ReqLog req;
    // Per round: request latencies (scaled and raw), generator lag, and
    // how long the load ran.
    std::vector<std::vector<double>> roundLatencyMs, roundRawMs, roundLagMs;
    std::vector<double> roundLoadS;
    std::uint64_t served = 0;
    std::uint64_t hits = 0, misses = 0, builds = 0, coalesced = 0;
    ProbeLog probe;
    SimStats lastStats;

    double dispatchPerEvent = 0;
    if (args.trace)
        dispatchPerEvent = dispatchSecondsPerEvent();

    std::mt19937_64 orderRng(args.seed);
    const auto start = Clock::now();
    int rounds = 0;
    while (rounds < 3 || since(start) < args.seconds) {
        Calib c;
        c.before = calibrate();
        resetPeakRss();
        const std::uint64_t roundSeed = args.seed * 1000003ull +
                                        static_cast<std::uint64_t>(rounds);
        RunResult bare, mon, traced;
        // Alternate which side runs first so drift cancels.
        const bool bareFirst = (orderRng() & 1) == 0;
        const Mode monMode =
            args.trace ? Mode::MonitoredProbed : Mode::Monitored;
        if (bareFirst) {
            bare = runOnce(w, Mode::Bare, roundSeed);
            if (args.trace)
                traced = runOnce(w, Mode::BareTraced, roundSeed);
            mon = runOnce(w, monMode, roundSeed);
        } else {
            mon = runOnce(w, monMode, roundSeed);
            if (args.trace)
                traced = runOnce(w, Mode::BareTraced, roundSeed);
            bare = runOnce(w, Mode::Bare, roundSeed);
        }
        peakRss.push_back(peakRssMb());
        c.after = calibrate();
        cal.push_back(c);
        const double hiccup = bare.hiccupMs;
        hiccupMs.push_back(hiccup);
        flagged.push_back(c.flagged() || hiccup > kHiccupLimitMs);
        rounds++;

        checkStats(bare, "bare", false);
        checkStats(mon, "monitored", true);
        // Host times of this round in nominal-host seconds.
        const double scale = bare.refS > 0 ? kRefNominalS / bare.refS : 1;
        refS.push_back(bare.refS);
        rawCoreWall.push_back(bare.wallS);
        rawMonWall.push_back(mon.wallS);
        coreWall.push_back(bare.wallS * scale);
        monWall.push_back(mon.wallS * scale);
        monSetup.push_back(mon.setupS * scale);
        buildS.push_back(bare.buildS);
        ratio.push_back(bare.wallS > 0 ? mon.wallS / bare.wallS : 0);
        coreEvents.push_back(
            static_cast<double>(bare.stats["sim.events"]));
        simPs.push_back(static_cast<double>(bare.stats["sim_time_ps"]));
        lastStats = bare.stats;

        roundLatencyMs.emplace_back();
        for (double ms : mon.req.latencyMs)
            roundLatencyMs.back().push_back(ms * scale);
        roundRawMs.push_back(mon.req.latencyMs);
        roundLagMs.push_back(mon.req.lagMs);
        roundLoadS.push_back(mon.wallS);
        req.attempted += mon.req.attempted;
        req.failed += mon.req.failed;
        req.bodyBytes += mon.req.bodyBytes;
        for (const auto &f : mon.req.failures) {
            if (req.failures.size() < 5)
                req.failures.push_back(f);
        }
        served += mon.served;
        hits += mon.cacheHits;
        misses += mon.cacheMisses;
        builds += mon.cacheBuilds;
        coalesced += mon.cacheCoalesced;
        // Cross-check the server's count against the clients' (load,
        // quiet checks, and the probe's own requests).
        const std::uint64_t clientReqs =
            mon.req.attempted + mon.probe.progressRttUs.size();
        if (mon.served != clientReqs)
            problem("server counted " + std::to_string(mon.served) +
                    " requests, clients sent " +
                    std::to_string(clientReqs));

        if (args.trace) {
            checkStats(traced, "traced", false);
            tracedWall.push_back(traced.wallS);
            untracedWall.push_back(bare.wallS);
            double sum = 0;
            for (const auto &kv : traced.layerSelfS) {
                layerSelf[kv.first].push_back(kv.second);
                sum += kv.second;
            }
            const double disp =
                dispatchPerEvent *
                static_cast<double>(traced.stats["sim.events"]);
            dispatchS.push_back(disp);
            sum += disp + traced.traceGenS;
            unexplainedS.push_back(traced.wallS - sum);
            unexplainedFrac.push_back((traced.wallS - sum) / traced.wallS);
            traceGenS.push_back(traced.traceGenS);
            traceOps.push_back(static_cast<double>(traced.traceOps));
            auto &p = mon.probe;
            auto cat = [](std::vector<double> &dst,
                          const std::vector<double> &src) {
                dst.insert(dst.end(), src.begin(), src.end());
            };
            cat(probe.lockWaitUs, p.lockWaitUs);
            cat(probe.snapshotUs, p.snapshotUs);
            cat(probe.dumpUs, p.dumpUs);
            cat(probe.bufferUs, p.bufferUs);
            cat(probe.statusUs, p.statusUs);
            cat(probe.samplePassUs, p.samplePassUs);
            cat(probe.progressRttUs, p.progressRttUs);
            probe.failed += p.failed;
            if (p.failed > 0)
                problem("probe calls failed: " + std::to_string(p.failed));
        }
        const auto roundLat = summarize(mon.req.latencyMs);
        std::printf("round %d: calib %.2f/%.2f stall %.1f ms%s ref %.4fs "
                    "core %.4fs monitored %.4fs requests %zu p50 %.3f ms "
                    "max %.3f ms (raw)\n",
                    rounds, c.before, c.after, hiccup,
                    flagged.back() ? " (flagged)" : "", bare.refS,
                    bare.wallS, mon.wallS,
                    mon.req.latencyMs.size(), roundLat.median,
                    mon.req.latencyMs.empty()
                        ? 0.0
                        : *std::max_element(mon.req.latencyMs.begin(),
                                            mon.req.latencyMs.end()));
    }
    const double measured = since(start);

    // Timings and latencies come from the steady rounds only; simulated
    // statistics, failures and counts from every round.
    std::vector<std::size_t> roundSamples;
    for (const auto &r : roundLatencyMs)
        roundSamples.push_back(r.size());
    const auto kept = steadyRounds(flagged, roundSamples, 1000);
    auto steady = [&](const std::vector<double> &v) {
        std::vector<double> out;
        for (std::size_t i : kept)
            out.push_back(v[i]);
        return out;
    };
    std::vector<double> rawLatencyMs;
    double loadSeconds = 0;
    for (std::size_t i : kept) {
        req.latencyMs.insert(req.latencyMs.end(), roundLatencyMs[i].begin(),
                             roundLatencyMs[i].end());
        rawLatencyMs.insert(rawLatencyMs.end(), roundRawMs[i].begin(),
                            roundRawMs[i].end());
        req.lagMs.insert(req.lagMs.end(), roundLagMs[i].begin(),
                         roundLagMs[i].end());
        loadSeconds += roundLoadS[i];
    }

    for (const auto &f : req.failures)
        problem("request failed: " + f);
    if (req.failed > 0 && req.failures.empty())
        problem(std::to_string(req.failed) + " requests failed");

    std::vector<Metric> metrics;
    auto add = [&](const std::string &name, double v, const char *unit) {
        if (!perfbench::validMetricName(name))
            problem("invalid metric name " + name);
        metrics.push_back({name, v, unit});
    };

    // A p99 must rest on at least ten samples beyond it (the percentile
    // rule); the printed summary also gives the highest such percentile.
    auto p99 = [&](const std::vector<double> &v, const char *what) {
        if (perfbench::samplesBeyond(v.size(), 99.0) < 10) {
            problem(std::string("only ") + std::to_string(v.size()) + " " +
                    what + " samples: too few for a p99");
            return 0.0;
        }
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        return perfbench::percentileSorted(sorted, 99.0);
    };
    const auto lat = summarize(req.latencyMs);
    const auto lag = summarize(req.lagMs);
    // Reported in meta, not bounded: on a shared host the request p99
    // of the same code moves by a third between runs with host stalls.
    const double reqP99 = p99(req.latencyMs, "request");
    const std::size_t flaggedRounds = static_cast<std::size_t>(
        std::count(flagged.begin(), flagged.end(), true));

    const double coreWallMed = median(steady(coreWall));
    const double monWallMed = median(steady(monWall));
    if (!args.trace) {
        add("setup_s", median(steady(monSetup)), "s");
        add("wall_s", monWallMed, "s");
        add("core_wall_s", coreWallMed, "s");
        add("events_per_s", median(coreEvents) / coreWallMed, "1/s");
        add("sim_cycles", median(simPs) / 1000.0, "cycles");
        add("overhead_ratio", median(steady(ratio)), "ratio");
        // A mean, not a median: a round's peak is bimodal (a ~3 MB
        // transient of the serving path lands in about half the rounds),
        // so a median would jump between the two modes.
        double rss = 0;
        for (double v : peakRss)
            rss += v;
        add("peak_rss_mb", rss / static_cast<double>(peakRss.size()),
            "MB");
        add("req_per_s",
            loadSeconds > 0
                ? static_cast<double>(req.latencyMs.size()) / loadSeconds
                : 0,
            "1/s");
        add("req_p50_ms", lat.median, "ms");
        // The bounded tail is p90; the p99 is in meta (see reqP99).
        std::vector<double> sorted = req.latencyMs;
        std::sort(sorted.begin(), sorted.end());
        add("req_p90_ms",
            sorted.empty() ? 0.0 : perfbench::percentileSorted(sorted, 90),
            "ms");
    } else {
        const SimStats &s = lastStats;
        auto ratioOf = [](std::uint64_t a, std::uint64_t b) {
            return a + b > 0 ? static_cast<double>(a) /
                                   static_cast<double>(a + b)
                             : 0.0;
        };
        auto u = [](std::uint64_t v) { return static_cast<double>(v); };
        const double tracedMed = median(tracedWall);
        add("trace_overhead_pct",
            100.0 * (tracedMed / median(untracedWall) - 1.0), "%");
        add("layers.unexplained_s", median(unexplainedS), "s");
        add("layers.unexplained_frac", median(unexplainedFrac), "ratio");
        add("sim.events", u(s.at("sim.events")), "count");
        add("sim.ns_per_event",
            1e9 * median(untracedWall) / u(s.at("sim.events")), "ns");
        add("sim.dispatch_self_s", median(dispatchS), "s");
        add("sim.conn.self_s", median(layerSelf["sim.conn"]), "s");
        add("sim.tick_useful_ratio",
            u(s.at("sim.useful_ticks")) / u(s.at("sim.ticks")), "ratio");
        add("sim.port_sends", u(s.at("sim.port_sends")), "count");
        add("sim.port_reject_ratio",
            ratioOf(s.at("sim.port_rejects"), s.at("sim.port_sends")),
            "ratio");
        add("sim.lock_wait_p50_us", median(probe.lockWaitUs), "us");
        add("sim.lock_wait_p99_us", p99(probe.lockWaitUs, "lock-wait"),
            "us");
        add("gpu.platform_build_s", median(buildS), "s");
        add("gpu.cu.self_s", median(layerSelf["gpu.cu"]), "s");
        add("gpu.cu.tick_useful_ratio",
            u(s.at("gpu.cu.useful_ticks")) / u(s.at("gpu.cu.ticks")),
            "ratio");
        add("gpu.cu.mem_reqs", u(s.at("gpu.cu.mem_reqs")), "count");
        add("gpu.cp.self_s", median(layerSelf["gpu.cp"]), "s");
        add("gpu.driver.self_s", median(layerSelf["gpu.driver"]), "s");
        add("workloads.trace_s", median(traceGenS), "s");
        add("workloads.trace_ops", median(traceOps), "count");
        for (const char *l : {"l1", "l2", "at", "rob", "dram", "rdma"}) {
            std::string key = std::string("mem.") + l;
            add(key + ".self_s", median(layerSelf[key]), "s");
        }
        add("mem.l1.hit_ratio", ratioOf(s.at("mem.l1.hits"),
                                        s.at("mem.l1.misses")),
            "ratio");
        add("mem.l2.hit_ratio", ratioOf(s.at("mem.l2.hits"),
                                        s.at("mem.l2.misses")),
            "ratio");
        add("mem.at.hit_ratio", ratioOf(s.at("mem.at.hits"),
                                        s.at("mem.at.misses")),
            "ratio");
        add("mem.dram.reads", u(s.at("mem.dram.reads")), "count");
        add("mem.dram.writes", u(s.at("mem.dram.writes")), "count");
        add("mem.rdma.forwarded_out", u(s.at("mem.rdma.forwarded_out")),
            "count");
        add("net.self_s", median(layerSelf["net"]), "s");
        add("net.msgs", u(s.at("net.msgs")), "count");
        add("metrics.sample_pass_us", median(probe.samplePassUs), "us");
        add("rtm.cache_hit_ratio", ratioOf(hits, misses), "ratio");
        add("rtm.cache_builds", u(builds) / rounds, "count");
        add("rtm.cache_coalesced", u(coalesced) / rounds, "count");
        add("rtm.component_snapshot_us", median(probe.snapshotUs), "us");
        add("rtm.buffer_levels_us", median(probe.bufferUs), "us");
        add("rtm.status_us", median(probe.statusUs), "us");
        add("json.component_dump_us", median(probe.dumpUs), "us");
        add("json.bytes_per_req",
            req.attempted > 0 ? u(req.bodyBytes) / u(req.attempted) : 0,
            "bytes");
        add("web.requests", u(served) / rounds, "count");
        add("web.progress_rtt_us", median(probe.progressRttUs), "us");
        add("gen.lag_p99_ms", p99(req.lagMs, "generator-lag"), "ms");
        if (std::fabs(median(unexplainedFrac)) > 0.10) {
            notes.push_back("layer sum misses traced wall_s by more than "
                            "10%");
        }
    }

    // Human-readable summary, then the meta line, then the result.
    std::printf("workload %s seed %llu: %d rounds in %.1f s, %zu flagged "
                "by calibration or host stalls, timings over %zu\n",
                w.name, static_cast<unsigned long long>(args.seed), rounds,
                measured, flaggedRounds, kept.size());
    std::printf("requests: %zu timed, %llu attempted, %llu failed; "
                "latency p50 %.3f ms p99 %.3f ms (percentile rule: "
                "p%g %.3f ms, n=%zu); "
                "generator lag p%g %.3f ms\n",
                lat.count, static_cast<unsigned long long>(req.attempted),
                static_cast<unsigned long long>(req.failed), lat.median,
                reqP99, lat.tailPct, lat.tail, lat.count, lag.tailPct,
                lag.tail);
    if (!passiveMismatch.empty()) {
        std::string names;
        for (const auto &d : passiveMismatch)
            names += " " + d;
        std::printf("monitored runs changed simulated counters:%s\n",
                    names.c_str());
    }
    for (const auto &m : metrics)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string meta = "{\"build_type\":" +
                       jsonString(PERFBENCH_BUILD_TYPE) +
                       ",\"host_threads\":" + std::to_string(hostThreads()) +
                       ",\"rounds\":" + std::to_string(rounds) +
                       ",\"flagged_rounds\":" +
                       std::to_string(flaggedRounds) +
                       ",\"steady_rounds\":" + std::to_string(kept.size()) +
                       ",\"calibration\":[";
    for (std::size_t i = 0; i < cal.size(); i++) {
        meta += (i ? ",[" : "[") + num(cal[i].before) + "," +
                num(cal[i].after) + "]";
    }
    meta += "],\"stall_ms\":[";
    for (std::size_t i = 0; i < hiccupMs.size(); i++)
        meta += (i ? "," : "") + num(hiccupMs[i]);
    meta += "],\"ref_nominal_s\":" + num(kRefNominalS) +
            ",\"ref_s\":" + num(median(refS)) +
            ",\"raw_core_wall_s\":" + num(median(rawCoreWall)) +
            ",\"raw_wall_s\":" + num(median(rawMonWall)) +
            ",\"raw_req_p50_ms\":" + num(median(rawLatencyMs));
    meta += ",\"req_samples\":" + std::to_string(lat.count) +
            ",\"req_p99_ms\":" + num(reqP99) +
            ",\"req_tail_pct\":" + num(lat.tailPct) +
            ",\"req_tail_ms\":" + num(lat.tail) +
            ",\"req_fail_frac\":" +
            num(req.attempted > 0 ? static_cast<double>(req.failed) /
                                        static_cast<double>(req.attempted)
                                  : 0) +
            ",\"gen_lag_p99_ms\":" + num(lag.tail) +
            ",\"sim_stats\":{";
    if (reference) {
        std::size_t i = 0;
        for (const auto &kv : *reference)
            meta += (i++ ? "," : "") + jsonString(kv.first) + ":" +
                    std::to_string(kv.second);
    }
    meta += "},\"passive_mismatch\":[";
    for (std::size_t i = 0; i < passiveMismatch.size(); i++)
        meta += (i ? "," : "") + jsonString(passiveMismatch[i]);
    meta += "],\"notes\":[";
    for (std::size_t i = 0; i < notes.size(); i++)
        meta += (i ? "," : "") + jsonString(notes[i]);
    meta += "]}";
    std::printf("meta %s\n", meta.c_str());

    std::string out = "{\"correct\":" + std::string(correct ? "true"
                                                            : "false") +
                      ",\"attempted\":" + std::to_string(req.attempted) +
                      ",\"failed\":" + std::to_string(req.failed) +
                      ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        out += (i ? "," : "") + jsonString(metrics[i].name) +
               ":{\"value\":" + num(metrics[i].value) +
               ",\"unit\":" + jsonString(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return correct ? 0 : 1;
}
