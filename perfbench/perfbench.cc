/**
 * @file
 * Repository benchmark harness. Runs one named benchmark workload -- a
 * fixed list of (application x treatment) cells -- through
 * runExperiment() on one host thread. The loop is closed: each cell
 * runs to completion before the next starts, and every cell builds a
 * fresh machine, so the simulated caches start empty in every cell.
 *
 * With --trace 0 it reports the end-to-end metrics (host throughput,
 * set-up time, peak memory, simulated speedup) from runs with tracing
 * and the stats dump off. With --trace 1 it reruns every cell with
 * both on, takes the per-layer counts from those runs, times each
 * layer's public entry point in isolation, and estimates each layer's
 * share of host time as probe cost x traced count.
 *
 * Usage:
 *   tmi_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --out FILE [--scale N] [--commit ID]
 *                 [--source-digest HEX]
 *
 * perfbench/run.py builds this binary and is the command to run; it
 * turns FILE into the one-line result. stdout carries a report for
 * people: per-cell fingerprints, the Fig. 9 reference column and the
 * latency percentiles of the feed cell.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cache/cache_sim.hh"
#include "core/experiment.hh"
#include "detect/detector.hh"
#include "mem/mmu.hh"
#include "ptsb/ptsb.hh"
#include "sched/fiber.hh"
#include "sched/scheduler.hh"

namespace
{

using namespace tmi;

using Params = std::vector<std::pair<std::string, std::string>>;

struct CellSpec
{
    const char *app;
    Treatment treatment;
    Params params;
};

struct BenchWorkload
{
    const char *name;
    std::vector<CellSpec> cells;
};

/** EXPERIMENTS.md's tail-latency knobs for the feed cells. */
const Params feedParams = {{"requests", "3000"},
                           {"arrival_gap", "5500"},
                           {"stat_rounds", "48"},
                           {"service_cycles", "600"}};

std::vector<CellSpec>
crossCells(const std::vector<const char *> &apps,
           const std::vector<Treatment> &treatments)
{
    std::vector<CellSpec> cells;
    for (const char *app : apps) {
        for (Treatment t : treatments)
            cells.push_back({app, t, {}});
    }
    return cells;
}

/**
 * The three workloads. fs-repair loads the privatized-page paths (MMU
 * COW, PTSB commit, detector, T2P) and, under pthreads, the coherence
 * directory; batch-overhead keeps pages shared, so fills and fiber
 * switches dominate and private-page work is bypassed; contended-sync
 * drives atomics, lock contention, HTM rollback and commit-per-atomic
 * PTSB traffic.
 */
std::vector<BenchWorkload>
benchWorkloads()
{
    using T = Treatment;
    std::vector<CellSpec> fs = crossCells(
        {"histogramfs", "lreg", "lu-ncb", "stringmatch", "spinlockpool",
         "leveldb"},
        {T::Pthreads, T::TmiProtect});
    fs.push_back({"histogramfs", T::HuronStatic, {}});

    std::vector<CellSpec> batch = crossCells(
        {"streamcluster", "matrix", "blackscholes", "fft", "radix",
         "ocean-cp"},
        {T::Pthreads, T::TmiDetect});

    std::vector<CellSpec> sync = crossCells(
        {"spinlockpool", "shptr-lock"},
        {T::Pthreads, T::HtmElide, T::SheriffProtect, T::Laser});
    sync.push_back({"feed-spsc", T::Pthreads, feedParams});
    sync.push_back({"feed-spsc", T::TmiProtect, feedParams});

    return {{"fs-repair", fs},
            {"batch-overhead", batch},
            {"contended-sync", sync}};
}

/** Paper Fig. 9 Tmi speedups recorded in EXPERIMENTS.md. */
double
paperTmiSpeedup(const std::string &app)
{
    static const std::map<std::string, double> ref = {
        {"histogramfs", 6.27}, {"lreg", 12.0},  {"stringmatch", 4.0},
        {"leveldb", 3.8},      {"spinlockpool", 15.0}};
    auto it = ref.find(app);
    return it == ref.end() ? 0.0 : it->second;
}

std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
cellName(const ExperimentConfig &cfg)
{
    return cfg.workload + " x " + treatmentName(cfg.treatment);
}

struct Setup
{
    std::vector<ExperimentConfig> configs;
    double profileS = 0; //!< host CPU time of the huron-static profiling
};

/**
 * Set-up: build and validate every cell's config, then profile each
 * huron-static cell once and pin the synthesized plan through planIn,
 * so the timed cells replay it without profiling again.
 */
Setup
setUp(const BenchWorkload &w, std::uint64_t seed, std::uint64_t scale)
{
    Setup s;
    std::vector<ConfigError> errors;
    for (const CellSpec &spec : w.cells) {
        ExperimentConfig cfg;
        cfg.workload = spec.app;
        cfg.treatment = spec.treatment;
        cfg.threads = 4;
        cfg.scale = scale;
        cfg.analysisInterval = 500'000;
        cfg.budget = 60'000'000'000ULL;
        cfg.seed = seed;
        cfg.params = spec.params;
        validateConfig(cfg, errors, cellName(cfg));
        s.configs.push_back(cfg);
    }
    fatalIfConfigErrors(errors);

    for (ExperimentConfig &cfg : s.configs) {
        if (cfg.treatment != Treatment::HuronStatic)
            continue;
        std::uint64_t t0 = threadCpuNs();
        RunResult prof = runExperiment(cfg);
        s.profileS += static_cast<double>(threadCpuNs() - t0) * 1e-9;
        if (!prof.compatible || prof.planText.empty())
            fatal("perfbench: profiling %s failed", cellName(cfg).c_str());
        cfg.planIn = prof.planText;
    }
    return s;
}

/** The simulated outputs a host-only change must leave unchanged. */
struct Fingerprint
{
    Cycles cycles = 0;
    std::uint64_t hitm = 0;
    std::uint64_t memOps = 0;
    std::uint64_t digest = 0;

    bool operator==(const Fingerprint &) const = default;
};

Fingerprint
fingerprintOf(const RunResult &r)
{
    return {r.cycles, r.hitmEvents, r.memOps, r.resultDigest};
}

/** FNV-1a over 64-bit words. */
void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

using Counts = std::map<std::string, double>;

/** Every count a traced run exposes: the metrics registry plus the
 *  RunResult fields the per-layer metrics read. */
Counts
countsOf(const RunResult &r)
{
    Counts c;
    if (r.metrics) {
        for (const std::string &name : r.metrics->names()) {
            double v = 0;
            r.metrics->value(name, v);
            c[name] = v;
        }
    }
    c["result.commits"] = static_cast<double>(r.commits);
    c["result.pagesProtected"] = static_cast<double>(r.pagesProtected);
    c["result.ladderDrops"] = static_cast<double>(r.ladderDrops);
    c["result.txnCommits"] = static_cast<double>(r.txnCommits);
    c["result.txnAborts"] = static_cast<double>(r.txnAborts);
    c["result.txnFallbackLocks"] =
        static_cast<double>(r.txnFallbackLocks);
    c["result.planSites"] = static_cast<double>(r.planSites);
    c["result.planAppliedSites"] =
        static_cast<double>(r.planAppliedSites);
    c["result.traceRecorded"] = static_cast<double>(r.traceRecorded);
    return c;
}

double
countOr0(const Counts &c, const std::string &name)
{
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
}

struct CellRecord
{
    ExperimentConfig config;
    RunResult first;                  //!< first untraced run
    std::vector<double> cpuNs;        //!< untraced, one per round
    std::vector<double> tracedCpuNs;  //!< traced, one per round
    Counts counts;                    //!< first traced run
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Median of five calls of @p rep, each returning ns per op. */
template <typename F>
double
medianOf5(F &&rep)
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r)
        reps.push_back(rep());
    return median(reps);
}

/** Run @p ops operations of @p body five times; median ns per op. */
template <typename F>
double
probeNs(std::uint64_t ops, F &&body)
{
    return medianOf5([&] {
        std::uint64_t t0 = threadCpuNs();
        body();
        return static_cast<double>(threadCpuNs() - t0) /
               static_cast<double>(ops);
    });
}

/** Keeps probe results observable so loops are not optimised away. */
volatile std::uint64_t probeSink = 0;

struct Probes
{
    double cacheHit = 0, cachePingPong = 0, cacheMiss = 0;
    double translateShared = 0, translatePrivate = 0, physRw = 0;
    double schedSwitch = 0, ptsbCommit = 0, detectConsume = 0;
};

/** Timed loops over each layer's public function, outside any run. */
Probes
runProbes()
{
    Probes p;
    std::uint64_t sink = 0;

    {
        // Hit: 64 lines (4 KB) cycled on one core stay in its L1.
        CacheSim cache;
        AccessContext ctx;
        ctx.width = 8;
        constexpr std::uint64_t ops = 2'000'000;
        for (std::uint64_t i = 0; i < 64; ++i) {
            ctx.paddr = i * 64;
            cache.access(ctx);
        }
        p.cacheHit = probeNs(ops, [&] {
            for (std::uint64_t i = 0; i < ops; ++i) {
                ctx.paddr = (i & 63) * 64;
                sink += cache.access(ctx).latency;
            }
        });
    }
    {
        // Ping-pong: two cores alternately write one line (HITM each).
        CacheSim cache;
        AccessContext ctx;
        ctx.width = 8;
        ctx.isWrite = true;
        ctx.paddr = 0x1000;
        constexpr std::uint64_t ops = 1'000'000;
        p.cachePingPong = probeNs(ops, [&] {
            for (std::uint64_t i = 0; i < ops; ++i) {
                ctx.core = static_cast<CoreId>(i & 1);
                sink += cache.access(ctx).latency;
            }
        });
    }
    {
        // Miss: a sequential sweep over 4x the LLC misses every level.
        CacheSim cache;
        AccessContext ctx;
        ctx.width = 8;
        const CacheConfig &cc = cache.config();
        const std::uint64_t lines =
            4ULL * cc.llcSets * cc.llcWays;
        for (std::uint64_t i = 0; i < lines; ++i) {
            ctx.paddr = i * 64;
            cache.access(ctx);
        }
        p.cacheMiss = probeNs(lines, [&] {
            for (std::uint64_t i = 0; i < lines; ++i) {
                ctx.paddr = i * 64;
                sink += cache.access(ctx).latency;
            }
        });
    }

    constexpr Addr base = 0x10000000;
    constexpr std::uint64_t pages = 256;
    const Addr pageBytes = Addr{1} << smallPageShift;
    auto translateProbe = [&](bool privatize) {
        Mmu mmu(smallPageShift);
        ShmRegion region("perfbench", mmu.phys());
        region.grow(pages);
        ProcessId pid = mmu.createAddressSpace();
        mmu.mapShared(pid, base, region, 0, pages);
        for (std::uint64_t pg = 0; pg < pages; ++pg) {
            if (privatize)
                mmu.protectPrivateCow(pid, (base >> smallPageShift) + pg);
            // First write: soft fault, and the COW fault when private.
            mmu.translate(pid, base + pg * pageBytes, true);
        }
        constexpr std::uint64_t ops = 2'000'000;
        return probeNs(ops, [&] {
            for (std::uint64_t i = 0; i < ops; ++i) {
                Addr va = base + (i % pages) * pageBytes +
                          ((i * 8) & (pageBytes - 1));
                sink += mmu.translate(pid, va, i & 1).paddr;
            }
        });
    };
    p.translateShared = translateProbe(false);
    p.translatePrivate = translateProbe(true);

    {
        PhysicalMemory phys(smallPageShift);
        std::vector<PPage> frames;
        for (int i = 0; i < 16; ++i)
            frames.push_back(phys.allocFrame());
        constexpr std::uint64_t ops = 4'000'000;
        p.physRw = probeNs(ops, [&] {
            for (std::uint64_t i = 0; i < ops; ++i) {
                Addr pa = (frames[i & 15] << smallPageShift) |
                          ((i * 8) & (pageBytes - 1));
                std::uint64_t v = i;
                if (i & 1)
                    phys.write(pa, &v, 8);
                else
                    phys.read(pa, &v, 8);
                sink += v;
            }
        });
    }

    {
        // Two fibers advancing past a 1-cycle quantum switch on every
        // advance; normalise by the scheduler's own switch count.
        p.schedSwitch = medianOf5([] {
            SimScheduler sched(1);
            constexpr int rounds = 50'000;
            for (int t = 0; t < 2; ++t) {
                sched.spawn("probe", [&sched] {
                    for (int i = 0; i < rounds; ++i)
                        sched.advance(10);
                });
            }
            std::uint64_t t0 = threadCpuNs();
            sched.run();
            return static_cast<double>(threadCpuNs() - t0) /
                   static_cast<double>(
                       std::max<std::uint64_t>(sched.contextSwitches(), 1));
        });
    }

    {
        // Commit of one dirty protected page. The write that dirties
        // it is outside the timed span, so the span is timed per call.
        Mmu mmu(smallPageShift);
        ShmRegion region("perfbench", mmu.phys());
        region.grow(4);
        ProcessId pid = mmu.createAddressSpace();
        mmu.mapShared(pid, base, region, 0, 4);
        Ptsb ptsb(mmu, pid);
        mmu.setCowCallback([&](ProcessId, VPage vpage, PPage shared,
                               PPage priv) -> CowOutcome {
            return ptsb.onCowFault(vpage, shared, priv);
        });
        ptsb.protectPage(base >> smallPageShift);
        p.ptsbCommit = medianOf5([&] {
            constexpr std::uint64_t ops = 20'000;
            std::chrono::nanoseconds spent{0};
            for (std::uint64_t v = 0; v < ops; ++v) {
                mmu.write(pid, base + (v % 512) * 8, &v, 8);
                auto t0 = std::chrono::steady_clock::now();
                sink += ptsb.commit().cost;
                spent += std::chrono::steady_clock::now() - t0;
            }
            return static_cast<double>(spent.count()) / ops;
        });
    }

    {
        InstructionTable instrs;
        Addr pc = instrs.define("perfbench.store", MemKind::Store, 4);
        AddressMap map;
        map.add(base, 1 << 20, RangeKind::AppHeap, "heap");
        Detector det(instrs, map, DetectorConfig{});
        PebsRecord rec;
        rec.pc = pc;
        constexpr std::uint64_t ops = 1'000'000;
        p.detectConsume = probeNs(ops, [&] {
            for (std::uint64_t i = 0; i < ops; ++i) {
                rec.tid = static_cast<ThreadId>(i & 3);
                rec.vaddr = base + (i % 64) * 8;
                sink += det.consume(rec);
            }
        });
    }

    probeSink = sink;
    return p;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::uint64_t scale = 4;
    std::string out;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE [--scale N] [--commit ID] "
                 "[--source-digest HEX]\n",
                 argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        std::string val = argv[++i];
        if (arg == "--workload")
            o.workload = val;
        else if (arg == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(val.c_str(), nullptr);
        else if (arg == "--trace" && (val == "0" || val == "1"))
            o.trace = val == "1";
        else if (arg == "--scale")
            o.scale = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--out")
            o.out = val;
        else if (arg == "--commit")
            o.commit = val;
        else if (arg == "--source-digest")
            o.sourceDigest = val;
        else
            usage(argv[0]);
    }
    if (o.workload.empty() || o.out.empty() || o.scale == 0 ||
        !(o.seconds > 0))
        usage(argv[0]);
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" ", colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) >= 0x20) {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}


/** Everything one invocation measured, for the report and the file. */
struct Outcome
{
    std::vector<CellRecord> cells;
    unsigned rounds = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<double> setupS;   //!< one per set-up repetition
    std::vector<double> profileS; //!< huron-static profiling, per set-up
    double memOps = 0;            //!< over all cells, one round
    double cpuNs = 0;             //!< sum of per-cell untraced medians
    std::uint64_t fingerprint = 0;
    std::uint64_t countsDigest = 0;
    std::vector<Metric> metrics;
};

/**
 * Set up, warm up, then run whole rounds of every cell until the time
 * is spent; at least two, so fingerprints and traced counts can be
 * compared between rounds. With @p opt.trace each cell also runs with
 * tracing and the stats dump on, right after its untraced run.
 */
Outcome
measure(const BenchWorkload &bw, const Options &opt)
{
    Outcome o;

    // Set-up, repeated so its median is steady: at least three times,
    // and until 0.2 s is spent when a set-up takes microseconds. The
    // last one is used.
    Setup setup;
    double setupSpent = 0;
    while (o.setupS.size() < 3 ||
           (setupSpent < 0.2 && o.setupS.size() < 10000)) {
        std::uint64_t t0 = threadCpuNs();
        setup = setUp(bw, opt.seed, opt.scale);
        o.setupS.push_back(static_cast<double>(threadCpuNs() - t0) * 1e-9);
        setupSpent += o.setupS.back();
        o.profileS.push_back(setup.profileS);
    }

    auto check = [&](const RunResult &r, const ExperimentConfig &cfg) {
        ++o.attempted;
        if (!(r.valid && r.compatible)) {
            ++o.failed;
            o.errors.push_back(cellName(cfg) + ": did not finish compatible");
        }
    };

    // Untimed warm-up: first touch of code and allocator state.
    RunResult warm = runExperiment(setup.configs.front());
    if (!(warm.valid && warm.compatible))
        o.errors.push_back("warm-up " + cellName(setup.configs.front()) +
                           ": did not finish compatible");

    for (const ExperimentConfig &cfg : setup.configs)
        o.cells.push_back({cfg, {}, {}, {}, {}});

    const auto wall0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall0)
            .count();
    };
    while (o.rounds < 2 || elapsed() < opt.seconds) {
        for (CellRecord &c : o.cells) {
            std::uint64_t t0 = threadCpuNs();
            RunResult r = runExperiment(c.config);
            c.cpuNs.push_back(static_cast<double>(threadCpuNs() - t0));
            check(r, c.config);
            if (o.rounds == 0)
                c.first = r;
            else if (!(fingerprintOf(r) == fingerprintOf(c.first)))
                o.errors.push_back(cellName(c.config) +
                                   ": simulated outputs changed between "
                                   "rounds");

            if (!opt.trace)
                continue;
            ExperimentConfig traced = c.config;
            traced.dumpStats = true;
            traced.trace.enabled = true;
            t0 = threadCpuNs();
            RunResult tr = runExperiment(traced);
            c.tracedCpuNs.push_back(static_cast<double>(threadCpuNs() - t0));
            check(tr, traced);
            if (!(fingerprintOf(tr) == fingerprintOf(c.first)))
                o.errors.push_back(cellName(c.config) +
                                   ": tracing changed simulated outputs");
            Counts counts = countsOf(tr);
            if (o.rounds == 0)
                c.counts = counts;
            else if (counts != c.counts)
                o.errors.push_back(cellName(c.config) +
                                   ": traced counts differ between rounds");
        }
        ++o.rounds;
    }

    o.fingerprint = 0xcbf29ce484222325ULL;
    o.countsDigest = 0xcbf29ce484222325ULL;
    for (const CellRecord &c : o.cells) {
        const RunResult &r = c.first;
        for (std::uint64_t v : {r.cycles, r.hitmEvents, r.memOps,
                                r.resultDigest})
            fnv(o.fingerprint, v);
        for (const auto &[name, v] : c.counts) {
            for (char ch : name)
                fnv(o.countsDigest, static_cast<unsigned char>(ch));
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            fnv(o.countsDigest, bits);
        }
        o.memOps += static_cast<double>(r.memOps);
        o.cpuNs += median(c.cpuNs);
    }
    return o;
}

const CellRecord *
baselineOf(const std::vector<CellRecord> &cells, const CellRecord &c)
{
    for (const CellRecord &b : cells) {
        if (b.config.workload == c.config.workload &&
            b.config.treatment == Treatment::Pthreads)
            return &b;
    }
    return nullptr;
}

/** Geometric mean of pthreads cycles / treated cycles. */
double
simSpeedup(const std::vector<CellRecord> &cells)
{
    double logSum = 0;
    unsigned n = 0;
    for (const CellRecord &c : cells) {
        const CellRecord *base = baselineOf(cells, c);
        if (base && base != &c && c.first.cycles) {
            logSum += std::log(speedup(base->first, c.first));
            ++n;
        }
    }
    return n ? std::exp(logSum / n) : 0.0;
}

std::vector<Metric>
endToEndMetrics(const Outcome &o)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"memops_per_s", o.memOps / (o.cpuNs * 1e-9), "1/s"},
        {"setup_s", median(o.setupS), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"sim_speedup", simSpeedup(o.cells), "x"},
    };
}

/**
 * Per-layer counts summed over the traced runs, the probes, and each
 * layer's estimated share of untraced host time. A ratio whose
 * denominator is zero on this workload (no htm-elide or huron-static
 * cell, no lock taken) reads 0.
 */
std::vector<Metric>
perLayerMetrics(const Outcome &o)
{
    Counts sum;
    double privatizedMemOps = 0, tracedCpuNs = 0, ptsbCommits = 0;
    for (const CellRecord &c : o.cells) {
        for (const auto &[name, v] : c.counts)
            sum[name] += v;
        tracedCpuNs += median(c.tracedCpuNs);
        if (countOr0(c.counts, "result.pagesProtected") > 0 ||
            c.config.treatment == Treatment::SheriffProtect)
            privatizedMemOps += countOr0(c.counts, "machine.memOps");
        // htm-elide reports its speculative commits as commits.
        if (c.config.treatment != Treatment::HtmElide)
            ptsbCommits += countOr0(c.counts, "result.commits");
    }
    auto s = [&](const char *name) { return countOr0(sum, name); };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    Probes p = runProbes();
    // Host-time estimate per layer: probe cost x traced count. The
    // private-translate weight counts every access of a cell that
    // privatized pages, an upper bound; the shared-translate weight
    // uses TLB misses as a proxy for translation-cache refills. A
    // commit costs one page diff per twin and nothing when clean, and
    // every COW-copied frame is one twin diffed once.
    double accesses = s("machine.accesses");
    double l1Hits = s("machine.l1Hits");
    double hitm = s("machine.hitmEvents");
    double memOps = s("machine.memOps");
    double txnCommits = s("result.txnCommits");
    double estCache = p.cacheHit * l1Hits + p.cachePingPong * hitm +
                      p.cacheMiss * (accesses - l1Hits - hitm);
    double estMem = p.physRw * memOps +
                    p.translateShared * s("machine.tlbMisses") +
                    p.translatePrivate * privatizedMemOps;
    double estSched = p.schedSwitch * s("machine.contextSwitches");
    double estPtsb = p.ptsbCommit * s("machine.framesCopied");
    double estDetect = p.detectConsume * s("runtime.recordsClassified");
    double share = 1.0 / o.cpuNs;
    double untracedRate = o.memOps / o.cpuNs;
    double tracedRate = o.memOps / tracedCpuNs;

    return {
        {"core.memops", memOps, "count"},
        {"core.atomic_ops", s("machine.atomicOps"), "count"},
        {"core.bulk_bytes", s("machine.bulkBytes"), "B"},
        {"core.ns_per_memop", o.cpuNs / o.memOps, "ns"},
        {"cache.l1_hit_ratio", ratio(l1Hits, accesses), "ratio"},
        {"cache.dram_fills", s("machine.dramFills"), "count"},
        {"cache.hitm", hitm, "count"},
        {"cache.invalidations", s("machine.invalidations"), "count"},
        {"cache.writebacks", s("machine.writebacks"), "count"},
        {"cache.hit_ns", p.cacheHit, "ns"},
        {"cache.pingpong_ns", p.cachePingPong, "ns"},
        {"cache.miss_ns", p.cacheMiss, "ns"},
        {"cache.est_share", estCache * share, "ratio"},
        {"mem.soft_faults", s("machine.softFaults"), "count"},
        {"mem.cow_faults", s("machine.cowFaults"), "count"},
        {"mem.frames_copied", s("machine.framesCopied"), "count"},
        {"mem.tlb_miss_ratio",
         ratio(s("machine.tlbMisses"),
               s("machine.tlbHits") + s("machine.tlbMisses")),
         "ratio"},
        {"mem.translate_shared_ns", p.translateShared, "ns"},
        {"mem.translate_private_ns", p.translatePrivate, "ns"},
        {"mem.phys_rw_ns", p.physRw, "ns"},
        {"mem.est_share", estMem * share, "ratio"},
        {"sched.switches_per_memop",
         ratio(s("machine.contextSwitches"), memOps), "ratio"},
        {"sched.lock_contended_ratio",
         ratio(s("machine.lockContended"), s("machine.lockAcquires")),
         "ratio"},
        {"sched.restores", s("machine.restores"), "count"},
        {"sched.switch_ns", p.schedSwitch, "ns"},
        {"sched.est_share", estSched * share, "ratio"},
        {"ptsb.commits", ptsbCommits, "count"},
        {"ptsb.commit_ns", p.ptsbCommit, "ns"},
        {"ptsb.est_share", estPtsb * share, "ratio"},
        {"perf.pebs_records", s("machine.recordsEmitted"), "count"},
        {"perf.records_lost", s("machine.recordsLost"), "count"},
        {"detect.analyses", s("runtime.analyses"), "count"},
        {"detect.filtered_ratio",
         ratio(s("runtime.recordsFiltered"), s("runtime.recordsClassified")),
         "ratio"},
        {"detect.consume_ns", p.detectConsume, "ns"},
        {"detect.est_share", estDetect * share, "ratio"},
        {"runtime.t2p_conversions",
         s("runtime.t2pConversions") + s("runtime.conversions"), "count"},
        {"runtime.pages_protected", s("result.pagesProtected"), "count"},
        {"runtime.ladder_drops", s("result.ladderDrops"), "count"},
        {"baselines.txn_commit_ratio",
         ratio(txnCommits, txnCommits + s("result.txnAborts")), "ratio"},
        {"baselines.fallback_locks", s("result.txnFallbackLocks"), "count"},
        {"staticrepair.plan_applied_ratio",
         ratio(s("result.planAppliedSites"), s("result.planSites")),
         "ratio"},
        {"staticrepair.profile_s", median(o.profileS), "s"},
        {"alloc.mallocs", s("machine.mallocs"), "count"},
        {"obs.trace_events", s("result.traceRecorded"), "count"},
        {"obs.trace_overhead_pct",
         100.0 * (untracedRate - tracedRate) / untracedRate, "%"},
        {"unattributed_share",
         1.0 - (estCache + estMem + estSched + estPtsb + estDetect) * share,
         "ratio"},
    };
}

/** The report for people: one row per cell, then the metrics. */
void
printReport(const BenchWorkload &bw, const Outcome &o)
{
    const bool fsRepair = bw.name == std::string("fs-repair");
    std::printf("loop: closed, one host thread, %zu cells x %u rounds; "
                "simulated caches start empty in every cell; untimed "
                "warm-up cell %s\n",
                o.cells.size(), o.rounds,
                cellName(o.cells.front().config).c_str());
    std::printf("%-30s %12s %9s %10s %18s %10s %8s %8s %6s %6s\n", "cell",
                "cycles", "hitm", "memops", "digest", "cpu_ms", "ns/op",
                "speedup", "paper", "ratio");
    for (const CellRecord &c : o.cells) {
        const RunResult &r = c.first;
        double cpu = median(c.cpuNs);
        char speed[16] = "-", paper[16] = "-", ratio[16] = "-";
        const CellRecord *base = baselineOf(o.cells, c);
        if (base && base != &c && r.cycles) {
            double s = speedup(base->first, r);
            std::snprintf(speed, sizeof(speed), "%.2fx", s);
            double ref = paperTmiSpeedup(c.config.workload);
            if (fsRepair && c.config.treatment == Treatment::TmiProtect &&
                ref > 0) {
                std::snprintf(paper, sizeof(paper), "%.2fx", ref);
                std::snprintf(ratio, sizeof(ratio), "%.2f", s / ref);
            }
        }
        std::printf("%-30s %12llu %9llu %10llu %18s %10.1f %8.1f %8s %6s "
                    "%6s\n",
                    cellName(c.config).c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.hitmEvents),
                    static_cast<unsigned long long>(r.memOps),
                    hex(r.resultDigest).c_str(), cpu * 1e-6,
                    r.memOps ? cpu / static_cast<double>(r.memOps) : 0.0,
                    speed, paper, ratio);
        if (r.requests) {
            std::printf("  sojourn: p50 %.0f, p999 %.0f simulated cycles "
                        "over %llu requests (%llu beyond p999)\n",
                        r.sojournP50, r.sojournP999,
                        static_cast<unsigned long long>(r.requests),
                        static_cast<unsigned long long>(r.requests / 1000));
        }
    }
    if (fsRepair)
        std::printf("reference: paper Fig. 9 Tmi speedups "
                    "(EXPERIMENTS.md); lu-ncb has none\n");
    else
        std::printf("reference: none; %s simulated results are "
                    "unvalidated\n",
                    bw.name);
    std::printf("fingerprint %s: %s (cycles, hitm, memops, digest of "
                "every cell)\n",
                bw.name, hex(o.fingerprint).c_str());
    if (!o.cells.front().counts.empty())
        std::printf("traced counts digest %s: %s\n", bw.name,
                    hex(o.countsDigest).c_str());
    std::printf("cell_fail_ratio: %llu/%llu\n",
                static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.attempted));
    std::printf("metrics:\n");
    for (const Metric &m : o.metrics)
        std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    for (const std::string &e : o.errors)
        std::printf("ERROR: %s\n", e.c_str());
}

/** The full result with provenance, for perfbench/run.py and later
 *  comparison. */
void
writeResult(const BenchWorkload &bw, const Options &opt,
            const std::string &cpu, long nproc, const Outcome &o)
{
    std::FILE *out = std::fopen(opt.out.c_str(), "w");
    if (!out)
        fatal("perfbench: cannot write %s", opt.out.c_str());
    std::fprintf(out,
                 "{\"schema\": \"tmi-perfbench-v1\", \"workload\": %s, "
                 "\"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
                 "\"scale\": %llu, \"rounds\": %u,\n",
                 jsonString(bw.name).c_str(),
                 static_cast<unsigned long long>(opt.seed), opt.seconds,
                 opt.trace ? 1 : 0,
                 static_cast<unsigned long long>(opt.scale), o.rounds);
    std::fprintf(out,
                 " \"provenance\": {\"commit\": %s, \"source_digest\": %s, "
                 "\"build_type\": %s, \"tmi_tracing\": %d, "
                 "\"tmi_fast_fibers\": %d, \"nproc\": %ld, "
                 "\"cpu_model\": %s},\n",
                 jsonString(opt.commit).c_str(),
                 jsonString(opt.sourceDigest).c_str(),
                 jsonString(PERFBENCH_BUILD_TYPE).c_str(), TMI_TRACING,
                 TMI_FAST_FIBERS, nproc, jsonString(cpu).c_str());
    std::fprintf(out, " \"cells\": [");
    for (std::size_t i = 0; i < o.cells.size(); ++i) {
        const CellRecord &c = o.cells[i];
        const RunResult &r = c.first;
        std::fprintf(out,
                     "%s\n  {\"cell\": %s, \"cycles\": %llu, \"hitm\": %llu, "
                     "\"memops\": %llu, \"digest\": \"%s\", "
                     "\"requests\": %llu, \"sojourn_p50_cycles\": %.17g, "
                     "\"sojourn_p999_cycles\": %.17g, \"cpu_ns\": [",
                     i ? "," : "", jsonString(cellName(c.config)).c_str(),
                     static_cast<unsigned long long>(r.cycles),
                     static_cast<unsigned long long>(r.hitmEvents),
                     static_cast<unsigned long long>(r.memOps),
                     hex(r.resultDigest).c_str(),
                     static_cast<unsigned long long>(r.requests),
                     r.sojournP50, r.sojournP999);
        for (std::size_t k = 0; k < c.cpuNs.size(); ++k)
            std::fprintf(out, "%s%.17g", k ? ", " : "", c.cpuNs[k]);
        std::fprintf(out, "]}");
    }
    std::fprintf(out,
                 "],\n \"fingerprint\": \"%s\", \"counts_digest\": \"%s\",\n",
                 hex(o.fingerprint).c_str(),
                 opt.trace ? hex(o.countsDigest).c_str() : "");
    std::fprintf(out,
                 " \"attempted\": %llu, \"failed\": %llu, \"correct\": %s, "
                 "\"errors\": [",
                 static_cast<unsigned long long>(o.attempted),
                 static_cast<unsigned long long>(o.failed),
                 o.errors.empty() ? "true" : "false");
    for (std::size_t i = 0; i < o.errors.size(); ++i) {
        std::fprintf(out, "%s%s", i ? ", " : "",
                     jsonString(o.errors[i]).c_str());
    }
    std::fprintf(out, "],\n \"metrics\": {");
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
        const Metric &m = o.metrics[i];
        std::fprintf(out, "%s\n  %s: {\"value\": %.17g, \"unit\": %s}",
                     i ? "," : "", jsonString(m.name).c_str(), m.value,
                     jsonString(m.unit).c_str());
    }
    std::fprintf(out, "}}\n");
    std::fclose(out);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::vector<BenchWorkload> all = benchWorkloads();
    auto wit = std::find_if(all.begin(), all.end(), [&](const auto &w) {
        return opt.workload == w.name;
    });
    if (wit == all.end()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const BenchWorkload &bw = *wit;

    const std::string cpu = cpuModel();
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("perfbench %s  seed=%llu seconds=%g trace=%d scale=%llu\n",
                bw.name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0,
                static_cast<unsigned long long>(opt.scale));
    std::printf("provenance: commit=%s source=%s build=%s "
                "TMI_TRACING=%d TMI_FAST_FIBERS=%d nproc=%ld cpu=\"%s\"\n",
                opt.commit.c_str(), opt.sourceDigest.c_str(),
                PERFBENCH_BUILD_TYPE, TMI_TRACING, TMI_FAST_FIBERS, nproc,
                cpu.c_str());

    Outcome o = measure(bw, opt);
    o.metrics = opt.trace ? perLayerMetrics(o) : endToEndMetrics(o);
    printReport(bw, o);
    writeResult(bw, opt, cpu, nproc, o);
    return 0;
}
