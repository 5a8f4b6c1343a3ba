/**
 * @file
 * Host-time benchmark of the simulator: one process, one thread, runs one
 * workload's cells one after another (a closed loop on the host) and
 * reports how long the simulator took, end to end and per layer.
 *
 *   perfbench --workload paper|serving|transfer --seed N --seconds S
 *             --trace 0|1 --reference FILE
 *   perfbench --write-reference          reference lines at seed 1
 *   perfbench --csv                      the benches' tables at seed 1
 *
 * --trace 0 repeats untraced passes for S seconds and prints the
 * end-to-end metrics; --trace 1 repeats untraced and traced passes,
 * interleaved cell by cell, and prints the per-layer metrics. The last
 * stdout line is one JSON object {correct, attempted, failed, metrics}.
 * Every cell's output is checked: conservation laws at any seed, the
 * stored reference at the development seed, identical results across
 * passes, and traced results identical to untraced ones.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cells.hpp"
#include "layers.hpp"
#include "stats/table.hpp"
#include "util/logging.hpp"

using namespace gmt;
using harness::ExperimentResult;
using harness::System;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/** Requests per tenant in the `serving` workload: bench_tenants' 2000
 *  scaled up so one pass is long enough to time steadily. */
constexpr std::uint64_t kServingRequests = 96000;

/** Untraced passes every run makes at least, so medians exist. */
constexpr int kMinPasses = 3;

/** Cells run untimed before the timed passes, for this long: the first
 *  cells of a process run up to 1.5x slower (cold caches, first-touch
 *  page faults). */
constexpr double kWarmupSeconds = 2.0;

/** Largest |calibrated layer sum / untraced wall - 1| the traced pass
 *  may show; perfbench reports whether it held. */
constexpr double kAccountingTolerance = 0.10;

enum class Workload
{
    Paper,
    Serving,
    Transfer,
};

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::Paper: return "paper";
      case Workload::Serving: return "serving";
      case Workload::Transfer: return "transfer";
    }
    return "?";
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** This process's peak resident set (VmHWM). Not ru_maxrss: Linux
 *  carries that across execve, so it would include the launcher's. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return double(std::strtoull(line.c_str() + 6, nullptr, 10))
                / 1024.0;
    fatal("no VmHWM in /proc/self/status");
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The cells of one workload at one seed. */
struct Cells
{
    Workload workload = Workload::Paper;
    std::vector<EngineCell> engine;
    std::vector<TransferCell> transfer;

    std::size_t
    size() const
    {
        return workload == Workload::Transfer ? transfer.size()
                                              : engine.size();
    }
};

Cells
makeCells(Workload w, std::uint64_t seed, std::uint64_t serving_requests)
{
    Cells c;
    c.workload = w;
    switch (w) {
      case Workload::Paper: c.engine = paperCells(seed); break;
      case Workload::Serving:
        c.engine = servingCells(seed, serving_requests);
        break;
      case Workload::Transfer:
        c.transfer = transferCells(seed);
        break;
    }
    return c;
}

/** Engine-side counters of one pass that the results do not keep. */
struct EngineCounts
{
    std::uint64_t events = 0;
    std::uint64_t laneDispatches = 0;
    std::uint64_t ffEpochs = 0;
    std::uint64_t fastPathHits = 0;

    void
    add(const gpu::RunResult &r)
    {
        events += r.eventsDispatched;
        laneDispatches += r.laneDispatches;
        ffEpochs += r.ffEpochs;
        fastPathHits += r.fastPathHits;
    }
};

/** One pass over every cell of a workload. */
struct Pass
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double setupS = 0.0;
    std::uint64_t work = 0; ///< simulated accesses or lane requests
    std::vector<double> cellMs;
    std::vector<ExperimentResult> engine;
    std::vector<TransferResult> transfer;
    EngineCounts counts;
    LayerSpans spans; ///< traced passes only
};

bool
isBaseline(System s)
{
    return s == System::Bam || s == System::Hmm;
}

ExperimentResult
runEngineCell(const EngineCell &cell, Pass &pass, LayerSpans *spans)
{
    const auto c0 = Clock::now();
    std::unique_ptr<gpu::AccessStream> stream;
    std::unique_ptr<TieredRuntime> runtime;
    gpu::GpuEngine engine;
    gpu::RunResult rr;
    ExperimentResult r;
    if (!spans) {
        // harness::runOne's sequence, with set-up timed apart.
        stream = makeStream(cell);
        runtime = harness::makeSystem(cell.system, cell.cfg);
        runtime->reset();
        stream->reset();
        const auto c1 = Clock::now();
        pass.setupS += seconds(c1 - c0);
        rr = engine.run(*runtime, *stream);
        const SimTime flushed = runtime->flush(rr.makespanNs);
        r = harvest(*runtime, *stream, rr, flushed);
    } else {
        Ticks t0 = ticks();
        stream = makeStream(cell);
        spans->workloadsSetup.add(ticks() - t0);
        t0 = ticks();
        runtime = harness::makeSystem(cell.system, cell.cfg);
        spans->coreSetup.add(ticks() - t0);
        TimedRuntime timed_rt(*runtime,
                              isBaseline(cell.system) ? spans->baselines
                                                      : spans->core,
                              *spans);
        TimedStream timed_st(*stream, *spans);
        timed_rt.reset();
        timed_st.reset();
        const auto c1 = Clock::now();
        pass.setupS += seconds(c1 - c0);
        t0 = ticks();
        rr = engine.run(timed_rt, timed_st);
        spans->gpuRun.add(ticks() - t0);
        const SimTime flushed = timed_rt.flush(rr.makespanNs);
        r = harvest(*runtime, *stream, rr, flushed);
    }
    pass.counts.add(rr);
    pass.work += r.accesses;
    return r;
}

TransferResult
runTransferCell(const TransferCell &cell, Pass &pass, LayerSpans *spans)
{
    const auto c0 = Clock::now();
    const Ticks t0 = ticks();
    TransferRig rig(cell);
    if (spans)
        spans->harnessSetup.add(ticks() - t0);
    pass.setupS += seconds(Clock::now() - c0);
    const TransferResult r = runTransfer(rig, spans);
    pass.work += r.lanes;
    return r;
}

/** Run cell @p i of @p cells into @p pass, timed end to end. */
void
runCell(const Cells &cells, std::size_t i, Pass &pass, LayerSpans *spans)
{
    const auto c0 = Clock::now();
    if (cells.workload == Workload::Transfer)
        pass.transfer.push_back(
            runTransferCell(cells.transfer[i], pass, spans));
    else
        pass.engine.push_back(runEngineCell(cells.engine[i], pass, spans));
    pass.cellMs.push_back(seconds(Clock::now() - c0) * 1e3);
}

/** Run every cell once, or with @p budget_s > 0 only until that much
 *  time has passed (the warm-up). */
Pass
runPass(const Cells &cells, double budget_s = 0.0)
{
    Pass pass;
    const double cpu0 = cpuSeconds();
    const auto w0 = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (budget_s > 0.0 && seconds(Clock::now() - w0) >= budget_s)
            break;
        runCell(cells, i, pass, nullptr);
    }
    pass.wallS = seconds(Clock::now() - w0);
    pass.cpuS = cpuSeconds() - cpu0;
    std::fprintf(stderr, "%s pass: %zu cells, wall %.4f s, cpu %.4f s\n",
                 budget_s > 0.0 ? "warm-up" : "untraced",
                 pass.cellMs.size(), pass.wallS, pass.cpuS);
    return pass;
}

/**
 * One untraced and one traced pass, interleaved cell by cell so that
 * both see the same host load: the traced-vs-untraced comparisons are
 * made within each pair. The order inside a pair alternates, so that
 * neither side always runs on the caches the other just warmed. Pass
 * walls are the sums of their cells' times.
 */
std::pair<Pass, Pass>
runPairedPass(const Cells &cells)
{
    Pass untraced, traced;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const bool traced_first = i % 2 == 1;
        for (bool traced_now : {traced_first, !traced_first}) {
            if (traced_now)
                runCell(cells, i, traced, &traced.spans);
            else
                runCell(cells, i, untraced, nullptr);
        }
    }
    for (Pass *p : {&untraced, &traced})
        for (double ms : p->cellMs)
            p->wallS += ms * 1e-3;
    std::fprintf(stderr, "paired pass: untraced %.4f s, traced %.4f s\n",
                 untraced.wallS, traced.wallS);
    return {std::move(untraced), std::move(traced)};
}

std::string
format(const Pass &p, std::size_t i)
{
    return p.transfer.empty() ? formatResult(p.engine[i])
                              : formatResult(p.transfer[i]);
}

std::string
invariants(const Pass &p, std::size_t i)
{
    return p.transfer.empty() ? checkInvariants(p.engine[i])
                              : checkInvariants(p.transfer[i]);
}

/** Reference lines ("<workload> <index> <result>") for one workload. */
std::vector<std::string>
loadReference(const std::string &path, Workload w)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read reference file '%s'", path.c_str());
    const std::string prefix = std::string(workloadName(w)) + " ";
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        const std::size_t sp = line.find(' ', prefix.size());
        if (sp == std::string::npos)
            fatal("malformed reference line '%s'", line.c_str());
        const std::size_t idx =
            std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
        if (idx != lines.size())
            fatal("reference cells of '%s' out of order",
                  workloadName(w));
        lines.push_back(line.substr(sp + 1));
    }
    return lines;
}

/** Counts checked cell runs and reports each failure on stderr. */
struct Checker
{
    std::vector<std::string> reference; ///< empty: invariants only
    std::vector<std::string> first;     ///< results every pass must match
    std::size_t cells = 0;              ///< cells in a full pass
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(const Pass &p, const char *kind)
    {
        for (std::size_t i = 0; i < p.cellMs.size(); ++i) {
            ++attempted;
            std::string why = invariants(p, i);
            const std::string got = format(p, i);
            if (why.empty() && !reference.empty()
                && got != reference.at(i))
                why = "differs from the reference";
            if (why.empty() && !first.empty() && got != first.at(i))
                why = "differs from the first untraced pass";
            if (!why.empty()) {
                ++failed;
                std::fprintf(stderr, "FAILED %s cell %zu: %s\n  %s\n",
                             kind, i, why.c_str(), got.c_str());
            }
        }
        if (first.empty() && p.cellMs.size() == cells)
            for (std::size_t i = 0; i < cells; ++i)
                first.push_back(format(p, i));
    }
};

/** Highest percentile of @p v with at least ten values beyond it; with
 *  ten or fewer values, the largest. Sets @p pct and @p beyond. */
double
tailOf(std::vector<double> v, double &pct, std::size_t &beyond)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const std::size_t idx = n > 10 ? n - 11 : n - 1;
    beyond = n - 1 - idx;
    pct = 100.0 * double(idx + 1) / double(n);
    return v[idx];
}

/** Per-cell median host time across passes. */
std::vector<double>
cellMedians(const std::vector<Pass> &passes)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < passes.front().cellMs.size(); ++i) {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back(p.cellMs[i]);
        out.push_back(median(v));
    }
    return out;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, const Checker &chk,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-30s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", chk.attempted, chk.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

/** Fig 8a GMT-Reuse over BaM (OSF 2): geomean and the mean absolute
 *  relative error against the paper's per-app bars, in percent. */
void
paperAccuracy(const Pass &p, double &geomean, double &err_pct)
{
    std::vector<double> speedups;
    double err = 0.0;
    for (std::size_t i = 0; i + 3 < p.engine.size(); i += 4) {
        const ExperimentResult &bam = p.engine[i];
        const ExperimentResult &reuse = p.engine[i + 3];
        if (bam.system != "BaM" || reuse.system != "GMT-Reuse"
            || speedups.size() == workloads::allWorkloads().size())
            break;
        speedups.push_back(reuse.speedupOver(bam));
        const double ref = paperReuseSpeedup(bam.workload);
        err += std::fabs(speedups.back() - ref) / ref;
    }
    geomean = harness::meanSpeedup(speedups);
    err_pct = 100.0 * err / double(speedups.size());
}

/** End-to-end metrics over the untraced passes. */
std::vector<Metric>
endToEnd(const Cells &cells, const std::vector<Pass> &passes)
{
    std::vector<double> wall, cpu, rate, setup;
    for (const Pass &p : passes) {
        wall.push_back(p.wallS);
        cpu.push_back(p.cpuS);
        rate.push_back(double(p.work) / p.wallS);
        setup.push_back(p.setupS);
    }
    const std::vector<double> cell_ms = cellMedians(passes);
    double tail_pct = 0.0;
    std::size_t beyond = 0;
    const double tail = tailOf(cell_ms, tail_pct, beyond);
    std::printf("workload %s: %zu cells per pass, %zu untraced passes\n",
                workloadName(cells.workload), cells.size(),
                passes.size());
    std::printf("cell_ms.tail is p%.1f of %zu per-cell medians (%zu "
                "cells beyond it)\n",
                tail_pct, cell_ms.size(), beyond);
    return {
        {"wall_s", median(wall), "s"},
        {"cpu_s", median(cpu), "s"},
        {"accesses_per_s", median(rate), "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"cell_ms.p50", median(cell_ms), "ms"},
        {"cell_ms.tail", tail, "ms"},
    };
}

/** Simulated totals the per-layer table explains host time with. */
struct SimTotals
{
    std::uint64_t t1Hits = 0, t1Misses = 0, evictions = 0;
    std::uint64_t t2Lookups = 0, t2Hits = 0, t2Inserts = 0, t2Fetches = 0;
    std::uint64_t ssdReads = 0, ssdWrites = 0;
    std::uint64_t predTotal = 0, predCorrect = 0, overflow = 0;
    std::uint64_t accesses = 0;

    explicit SimTotals(const Pass &p)
    {
        for (const ExperimentResult &r : p.engine) {
            accesses += r.accesses;
            t1Hits += r.tier1Hits;
            t1Misses += r.tier1Misses;
            evictions += r.tier1Evictions;
            t2Lookups += r.tier2Lookups;
            t2Hits += r.tier2Hits;
            t2Inserts += r.evictToTier2;
            t2Fetches += r.tier2Fetches;
            ssdReads += r.ssdReads;
            ssdWrites += r.ssdWrites;
            predTotal += r.predTotal;
            predCorrect += r.predCorrect;
            overflow += r.overflowRedirects;
        }
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics of one traced pass (host ns after calibration). */
std::map<std::string, Metric>
layerMetrics(const Pass &p, const Calibration &cal)
{
    const LayerSpans &s = p.spans;
    const SimTotals sim(p);
    std::map<std::string, Metric> m;
    auto put = [&](const std::string &name, double v, const char *unit) {
        m[name] = Metric{name, v, unit};
    };
    auto runtimeLayer = [&](const std::string &pre,
                            const RuntimeSpans &rs) {
        put(pre + ".tryhit.calls", double(rs.tryHit.calls), "count");
        put(pre + ".tryhit.accepted", double(rs.tryHitAccepted), "count");
        put(pre + ".tryhit.accept_ratio",
            ratio(double(rs.tryHitAccepted), double(rs.tryHit.calls)),
            "ratio");
        put(pre + ".tryhit.ns", cal.workNs(rs.tryHit), "ns");
        put(pre + ".tryhit.ns_per_call",
            ratio(cal.workNs(rs.tryHit), double(rs.tryHit.calls)), "ns");
        put(pre + ".access.calls", double(rs.access.calls), "count");
        put(pre + ".access.ns", cal.workNs(rs.access), "ns");
        put(pre + ".access.ns_per_call",
            ratio(cal.workNs(rs.access), double(rs.access.calls)), "ns");
        put(pre + ".bg.calls", double(rs.background.calls), "count");
        put(pre + ".bg.ns", cal.workNs(rs.background), "ns");
    };

    const double gpu_self = s.gpuSelfNs(cal);
    put("gpu.run.ns", s.gpuRunNs(cal), "ns");
    put("gpu.self_ns", gpu_self, "ns");
    put("gpu.ns_per_access", ratio(gpu_self, double(sim.accesses)), "ns");
    put("gpu.events", double(p.counts.events), "count");
    put("gpu.lane_dispatches", double(p.counts.laneDispatches), "count");
    put("gpu.ff_epochs", double(p.counts.ffEpochs), "count");
    put("gpu.fast_path_hits", double(p.counts.fastPathHits), "count");
    put("gpu.fast_path_share",
        ratio(double(p.counts.fastPathHits), double(sim.accesses)),
        "ratio");
    runtimeLayer("core", s.core);
    runtimeLayer("baselines", s.baselines);
    put("core.flush.ns", cal.workNs(s.flush), "ns");
    put("core.setup_ns", cal.workNs(s.coreSetup), "ns");
    put("workloads.setup_ns", cal.workNs(s.workloadsSetup), "ns");
    put("workloads.next.calls", double(s.next.calls), "count");
    put("workloads.next.ns", cal.workNs(s.next), "ns");
    put("util.zipf.calls", double(s.zipf.calls), "count");
    put("util.zipf.ns", cal.workNs(s.zipf), "ns");
    put("pcie.transfer.calls", double(s.pcie.calls), "count");
    put("pcie.transfer.ns", cal.workNs(s.pcie), "ns");
    put("pcie.bytes", double(s.pcieBytes), "B");
    put("harness.filter_ns", s.filterNs(cal), "ns");
    put("harness.setup_ns", cal.workNs(s.harnessSetup), "ns");

    put("cache.tier1_hits", double(sim.t1Hits), "count");
    put("cache.tier1_misses", double(sim.t1Misses), "count");
    put("cache.evictions", double(sim.evictions), "count");
    put("tier2.lookups", double(sim.t2Lookups), "count");
    put("tier2.hits", double(sim.t2Hits), "count");
    put("tier2.hit_ratio",
        ratio(double(sim.t2Hits), double(sim.t2Lookups)), "ratio");
    put("tier2.inserts", double(sim.t2Inserts), "count");
    put("tier2.fetches", double(sim.t2Fetches), "count");
    put("nvme.reads", double(sim.ssdReads), "count");
    put("nvme.writes", double(sim.ssdWrites), "count");
    put("reuse.predictions", double(sim.predTotal), "count");
    put("reuse.accuracy",
        ratio(double(sim.predCorrect), double(sim.predTotal)), "ratio");
    put("reuse.overflow_redirects", double(sim.overflow), "count");

    // Top-level spans: everything a cell does except destroying its
    // objects and harvesting counters.
    const double accounted = s.gpuRunNs(cal) + cal.workNs(s.flush)
        + cal.workNs(s.coreSetup) + cal.workNs(s.workloadsSetup)
        + cal.workNs(s.harnessSetup) + s.filterNs(cal)
        + cal.workNs(s.zipf) + cal.workNs(s.pcie);
    put("harness.accounted_ns", accounted, "ns");
    return m;
}

/** Per-layer metrics: medians over the traced passes, plus the tracing
 *  overhead and accounting against the untraced passes. */
std::vector<Metric>
perLayer(const Cells &cells, const std::vector<Pass> &untraced,
         const std::vector<Pass> &traced, const Calibration &cal)
{
    std::vector<std::map<std::string, Metric>> each;
    for (const Pass &p : traced)
        each.push_back(layerMetrics(p, cal));
    std::vector<Metric> out;
    for (const auto &[name, first] : each.front()) {
        std::vector<double> v;
        for (const auto &m : each)
            v.push_back(m.at(name).value);
        if (name != "harness.accounted_ns")
            out.push_back({name, median(v), first.unit});
    }

    // Traced pass i and untraced pass i ran interleaved, so compare
    // them pair by pair.
    std::vector<double> overhead, accounted;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        overhead.push_back(traced[i].wallS / untraced[i].wallS - 1.0);
        accounted.push_back(each[i].at("harness.accounted_ns").value * 1e-9
                            / untraced[i].wallS);
    }
    const double accounted_pct = 100.0 * median(accounted);
    out.push_back({"harness.cells", double(cells.size()), "count"});
    out.push_back({"harness.timer_ns", cal.spanTicks * cal.nsPerTick, "ns"});
    out.push_back(
        {"harness.sampled_call_ns", cal.sampledTicks * cal.nsPerTick, "ns"});
    out.push_back({"harness.trace_overhead_pct", 100.0 * median(overhead),
                   "%"});
    out.push_back({"harness.accounted_pct", accounted_pct, "%"});

    double geomean = 0.0, err_pct = 0.0;
    if (cells.workload == Workload::Paper)
        paperAccuracy(untraced.front(), geomean, err_pct);
    out.push_back({"sim.speedup_geomean", geomean, "x"});
    out.push_back({"sim.paper_err_pct", err_pct, "%"});

    std::printf("workload %s: %zu untraced + %zu traced passes; timer "
                "%.1f ns per span (%.1f ns inside it), %.1f ns per call "
                "timed 1 in %llu\n",
                workloadName(cells.workload), untraced.size(),
                traced.size(), cal.spanTicks * cal.nsPerTick,
                cal.insideTicks * cal.nsPerTick,
                cal.sampledTicks * cal.nsPerTick,
                (unsigned long long)SampledSpan::kSampleEvery);
    std::printf("accounting: calibrated layer times = %.1f%% of the "
                "untraced wall_s (tolerance +-%.0f%%): %s\n",
                accounted_pct, 100.0 * kAccountingTolerance,
                std::fabs(accounted_pct / 100.0 - 1.0)
                        <= kAccountingTolerance
                    ? "ok"
                    : "OUTSIDE TOLERANCE");
    return out;
}

/** The paper benches' tables at seed 1 and full size, for comparison
 *  with their --csv output (check_benches.py). */
void
printBenchTables()
{
    const Cells paper = makeCells(Workload::Paper, kDevSeed, 0);
    const Pass pp = runPass(paper);
    const std::vector<ExperimentResult> &r = pp.engine;
    const std::size_t apps = workloads::allWorkloads().size();
    auto speed = [](const ExperimentResult &a, const ExperimentResult &b) {
        return stats::Table::num(a.speedupOver(b));
    };

    stats::Table t8a("Figure 8a"), t8b("Figure 8b"), t11("Figure 11"),
        t14("Figure 14");
    t8a.header({"App", "GMT-TierOrder", "GMT-Random", "GMT-Reuse",
                "Paper(GMT-Reuse approx)"});
    t8b.header({"App", "BaM(GB)", "TierOrder", "Random", "Reuse"});
    t11.header({"App", "GMT-TierOrder", "GMT-Random", "GMT-Reuse"});
    t14.header({"App", "HMM", "GMT-Reuse", "GMT-Reuse vs HMM"});
    std::vector<double> g8[3], g11[3], g14[3];
    for (std::size_t a = 0; a < apps; ++a) {
        const ExperimentResult *f8 = &r[4 * a];
        const ExperimentResult *f11 = &r[4 * (apps + a)];
        const ExperimentResult &hmm = r[8 * apps + a];
        const std::string &app = f8[0].workload;
        for (int k = 0; k < 3; ++k) {
            g8[k].push_back(f8[k + 1].speedupOver(f8[0]));
            g11[k].push_back(f11[k + 1].speedupOver(f11[0]));
        }
        g14[0].push_back(hmm.speedupOver(f8[0]));
        g14[1].push_back(f8[3].speedupOver(f8[0]));
        g14[2].push_back(f8[3].speedupOver(hmm));
        t8a.row({app, speed(f8[1], f8[0]), speed(f8[2], f8[0]),
                 speed(f8[3], f8[0]),
                 stats::Table::num(paperReuseSpeedup(app))});
        const double bam_gb = double(f8[0].ssdBytes()) / double(1_GiB)
                              * double(kCapacityScale);
        auto rel = [&](const ExperimentResult &x) {
            return stats::Table::pct(double(x.ssdBytes())
                                     / double(f8[0].ssdBytes()));
        };
        t8b.row({app, stats::Table::num(bam_gb, 1), rel(f8[1]),
                 rel(f8[2]), rel(f8[3])});
        t11.row({app, speed(f11[1], f11[0]), speed(f11[2], f11[0]),
                 speed(f11[3], f11[0])});
        t14.row({app, speed(hmm, f8[0]), speed(f8[3], f8[0]),
                 speed(f8[3], hmm)});
    }
    auto geo = [](const std::vector<double> &v) {
        return stats::Table::num(harness::meanSpeedup(v));
    };
    t8a.row({"geo-mean", geo(g8[0]), geo(g8[1]), geo(g8[2]),
             "1.50 (avg; 1.07/1.24 for TierOrder/Random)"});
    t11.row({"geo-mean", geo(g11[0]), geo(g11[1]), geo(g11[2])});
    t14.row({"geo-mean", geo(g14[0]), geo(g14[1]), geo(g14[2])});
    std::printf("== bench_fig8_speedup\n");
    t8a.printCsv();
    t8b.printCsv();
    std::printf("== bench_fig11_oversubscription\n");
    t11.printCsv();
    std::printf("== bench_fig14_hmm\n");
    t14.printCsv();

    const Cells serving =
        makeCells(Workload::Serving, kDevSeed, kBenchTenantRequests);
    const Pass sp = runPass(serving);
    const double osfs[] = {2.0, 4.0, 8.0, 16.0};
    auto ns = [](std::uint64_t v) { return std::to_string(v); };
    stats::Table lat("Per-tenant latency"), mix("Per-tenant mix");
    lat.header({"OSF", "Tenant", "sh p50", "sh p95", "sh p99", "qos p50",
                "qos p95", "qos p99"});
    mix.header({"OSF", "Tenant", "Requests", "Accesses", "T1 hit %",
                "T2 hits", "Faults"});
    for (std::size_t i = 0; i < std::size(osfs); ++i) {
        const ExperimentResult &sh = sp.engine[2 * i];
        const ExperimentResult &qos = sp.engine[2 * i + 1];
        for (std::size_t k = 0; k < sh.tenants.size(); ++k) {
            const harness::TenantResult &a = sh.tenants[k];
            const harness::TenantResult &b = qos.tenants[k];
            lat.row({stats::Table::num(osfs[i]), a.tenant, ns(a.p50Ns),
                     ns(a.p95Ns), ns(a.p99Ns), ns(b.p50Ns), ns(b.p95Ns),
                     ns(b.p99Ns)});
            const double hit_pct = a.accesses
                ? 100.0 * double(a.tier1Hits) / double(a.accesses)
                : 0.0;
            mix.row({stats::Table::num(osfs[i]), a.tenant,
                     ns(a.requests), ns(a.accesses),
                     stats::Table::num(hit_pct), ns(a.tier2Hits),
                     ns(a.faults)});
        }
    }
    std::printf("== bench_tenants\n");
    lat.printCsv();
    mix.printCsv();

    const Cells transfer = makeCells(Workload::Transfer, kDevSeed, 0);
    const Pass tp = runPass(transfer);
    stats::Table t6b("Figure 6b");
    t6b.header({"Skew", "cudaMemcpyAsync", "zero-copy", "Hybrid-8T",
                "Hybrid-16T", "Hybrid-32T"});
    for (std::size_t s = 0; s < tp.transfer.size(); s += kFig6Schemes) {
        std::vector<std::string> row = {
            stats::Table::num(transfer.transfer[s].skew, 1)};
        for (std::size_t c = 0; c < kFig6Schemes; ++c)
            row.push_back(
                stats::Table::num(tp.transfer[s + c].bandwidthGBs, 2));
        t6b.row(row);
    }
    std::printf("== bench_fig6_transfer\n");
    t6b.printCsv();
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper|serving|transfer --seed N --seconds S --trace 0|1 "
                 "--reference FILE\n       perfbench --write-reference | "
                 "--csv\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        usage((std::string(flag) + " wants a non-negative integer").c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, reference;
    std::uint64_t seed = kDevSeed, secs = 10, trace = 0;
    bool write_reference = false, csv = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--seed")
            seed = parseUnsigned("--seed", value());
        else if (a == "--seconds")
            secs = parseUnsigned("--seconds", value());
        else if (a == "--trace")
            trace = parseUnsigned("--trace", value());
        else if (a == "--reference")
            reference = value();
        else if (a == "--write-reference")
            write_reference = true;
        else if (a == "--csv")
            csv = true;
        else
            usage(("unknown option " + a).c_str());
    }

    if (csv) {
        printBenchTables();
        return 0;
    }
    if (write_reference) {
        for (Workload w :
             {Workload::Paper, Workload::Serving, Workload::Transfer}) {
            const Pass p =
                runPass(makeCells(w, kDevSeed, kServingRequests));
            for (std::size_t i = 0; i < p.cellMs.size(); ++i)
                std::printf("%s %zu %s\n", workloadName(w), i,
                            format(p, i).c_str());
        }
        return 0;
    }

    Workload w;
    if (workload == "paper")
        w = Workload::Paper;
    else if (workload == "serving")
        w = Workload::Serving;
    else if (workload == "transfer")
        w = Workload::Transfer;
    else
        usage("--workload must be paper, serving or transfer");
    if (trace > 1)
        usage("--trace must be 0 or 1");
    if (reference.empty())
        usage("--reference FILE is required");

    const Cells cells = makeCells(w, seed, kServingRequests);
    Checker chk;
    chk.cells = cells.size();
    if (seed == kDevSeed) {
        chk.reference = loadReference(reference, w);
        if (chk.reference.size() != cells.size())
            fatal("reference holds %zu '%s' cells, the workload has %zu",
                  chk.reference.size(), workloadName(w), cells.size());
    }

    // Calibrate before the timed passes so its spin does not land in
    // them; an untraced run does not need it.
    const Calibration cal = trace ? Calibration::measure() : Calibration{};
    chk.check(runPass(cells, kWarmupSeconds), "warm-up");
    std::vector<Pass> untraced, traced;
    const auto start = Clock::now();
    auto elapsed = [&] { return seconds(Clock::now() - start); };
    while (true) {
        if (trace) {
            auto [u, t] = runPairedPass(cells);
            chk.check(u, "untraced");
            chk.check(t, "traced");
            untraced.push_back(std::move(u));
            traced.push_back(std::move(t));
        } else {
            untraced.push_back(runPass(cells));
            chk.check(untraced.back(), "untraced");
        }
        const int done = int(untraced.size());
        if (elapsed() >= double(secs) && done >= (trace ? 1 : kMinPasses))
            break;
    }

    const bool correct = chk.failed == 0;
    std::printf("checked %" PRIu64 " cell runs against %s: %" PRIu64
                " failed (failed_cells %.4f)\n",
                chk.attempted,
                seed == kDevSeed ? "the stored reference and invariants"
                                 : "invariants",
                chk.failed,
                double(chk.failed) / double(std::max<std::uint64_t>(
                                         chk.attempted, 1)));
    if (trace) {
        printResult(correct, chk, perLayer(cells, untraced, traced, cal));
    } else {
        if (w == Workload::Paper) {
            double geomean = 0.0, err_pct = 0.0;
            paperAccuracy(untraced.front(), geomean, err_pct);
            std::printf("sim_speedup_geomean %.4f x (GMT-Reuse over BaM, "
                        "OSF 2) beside paper_err_pct %.2f %% (mean "
                        "|error| vs Fig 8a bars)\n",
                        geomean, err_pct);
        } else {
            std::printf("simulated results of '%s' are unvalidated: the "
                        "repository holds no reference numbers for them\n",
                        workloadName(w));
        }
        printResult(correct, chk, endToEnd(cells, untraced));
    }
    return 0;
}
