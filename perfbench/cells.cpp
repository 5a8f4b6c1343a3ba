#include "cells.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <set>

#include "layers.hpp"
#include "pcie/params.hpp"
#include "workloads/factory.hpp"
#include "workloads/tenant_schedule.hpp"

using namespace gmt;
using harness::ExperimentResult;
using harness::System;

namespace perfbench
{

namespace
{

constexpr System kFourSystems[] = {System::Bam, System::GmtTierOrder,
                                   System::GmtRandom, System::GmtReuse};

RuntimeConfig
seededDefault(std::uint64_t seed)
{
    RuntimeConfig cfg = RuntimeConfig::paperDefault();
    cfg.seed = seed;
    return cfg;
}

/** bench_tenants' four tenants tiling @p num_pages. */
std::vector<workloads::TenantSpec>
servingTenants(std::uint64_t num_pages, std::uint64_t requests,
               std::uint64_t seed)
{
    using workloads::ArrivalPattern;
    const ArrivalPattern patterns[4] = {
        ArrivalPattern::Zipf, ArrivalPattern::Uniform,
        ArrivalPattern::Scan, ArrivalPattern::Hotspot};
    const char *const names[4] = {"kv", "scan", "etl", "web"};
    std::vector<workloads::TenantSpec> specs(4);
    for (unsigned t = 0; t < 4; ++t) {
        workloads::TenantSpec &s = specs[t];
        s.name = names[t];
        s.pattern = patterns[t];
        s.pages = num_pages / 4;
        s.requests = requests;
        s.periodNs = 50000;
        s.phaseNs = t * 12500;
        s.warps = 8;
        s.touchesPerRequest = 8;
        s.seed = 11 + t + (seed - kDevSeed);
    }
    specs[3].pages += num_pages - 4 * (num_pages / 4);
    return specs;
}

void
setPageBounds(RuntimeConfig &cfg,
              const std::vector<workloads::TenantSpec> &specs)
{
    std::uint64_t end = 0;
    for (const auto &s : specs) {
        end += s.pages;
        cfg.tenants.pageBounds.push_back(end);
    }
}

/** bench_tenants' QoS knobs: partitioned clock, pins, throttle. */
void
applyQos(RuntimeConfig &cfg)
{
    cfg.tenants.partitionTier1 = true;
    const std::uint64_t quota = cfg.tier1Pages / 4;
    cfg.tenants.tier1Quota = {quota, quota, quota, quota};
    cfg.tenants.pinnedPages = {quota / 2, 0, 0, quota / 4};
    cfg.tenants.fetchWindow = 4;
}

/** bench_tenants' SLO targets (observers only: no session attaches
 *  them here, as in an untraced bench run). */
void
applySlo(RuntimeConfig &cfg)
{
    trace::SloSpec tight;
    tight.quantilePct = 99;
    tight.targetNs = 1'000'000;
    tight.windowNs = 1'000'000;
    tight.burnWindows = 8;
    tight.burnThreshold = 4;
    trace::SloSpec loose;
    loose.quantilePct = 95;
    loose.targetNs = 20'000'000;
    loose.windowNs = 1'000'000;
    loose.burnWindows = 8;
    loose.burnThreshold = 4;
    cfg.tenants.slo = {tight, loose, loose, tight};
}

template <bool Traced>
TransferResult
zipfBandwidth(TransferRig &rig, LayerSpans *spans)
{
    // Tiny FIFO residency filter standing in for GPU memory, as in
    // bench_fig6_transfer.
    constexpr std::size_t kResident = 1024;
    std::set<std::uint64_t> resident;
    std::deque<std::uint64_t> fifo;

    TransferResult r;
    SimTime now = 0;
    for (std::uint64_t w = 0; w < kFig6Windows; ++w) {
        Ticks w0 = 0;
        if constexpr (Traced)
            w0 = ticks();
        std::set<std::uint64_t> batch;
        for (unsigned lane = 0; lane < kWarpLanes; ++lane) {
            std::uint64_t page;
            if constexpr (Traced) {
                page = spans->zipf.run(spans->rng, [&] {
                    return rig.zipf.sample(rig.rng);
                });
            } else {
                page = rig.zipf.sample(rig.rng);
            }
            if (!resident.count(page))
                batch.insert(page);
        }
        r.lanes += kWarpLanes;
        if (batch.empty()) {
            now += 1000;
        } else {
            if constexpr (Traced) {
                const Ticks t0 = ticks();
                now = rig.tm.transfer(now, unsigned(batch.size()),
                                      kWarpLanes);
                spans->pcie.add(ticks() - t0);
            } else {
                now = rig.tm.transfer(now, unsigned(batch.size()),
                                      kWarpLanes);
            }
            r.bytes += std::uint64_t(batch.size()) * kPageBytes;
            for (const std::uint64_t page : batch) {
                resident.insert(page);
                fifo.push_back(page);
                if (fifo.size() > kResident) {
                    resident.erase(fifo.front());
                    fifo.pop_front();
                }
            }
        }
        if constexpr (Traced)
            spans->window.add(ticks() - w0);
    }
    r.endNs = now;
    r.pagesMoved = rig.tm.pagesMoved();
    r.bandwidthGBs = double(r.bytes) / (double(now) / 1e9) / 1e9;
    if constexpr (Traced)
        spans->pcieBytes += r.bytes;
    return r;
}

} // namespace

std::vector<EngineCell>
paperCells(std::uint64_t seed)
{
    std::vector<EngineCell> cells;
    const RuntimeConfig osf2 = seededDefault(seed);
    for (const auto &info : workloads::allWorkloads())
        for (System sys : kFourSystems)
            cells.push_back({"fig8", sys, info.name, osf2, {}});
    for (const auto &info : workloads::allWorkloads()) {
        RuntimeConfig cfg = seededDefault(seed);
        if (info.graphApp) {
            // Graph datasets are fixed: halve both memory tiers.
            cfg.tier1Pages /= 2;
            cfg.tier2Pages /= 2;
        }
        cfg.setOversubscription(4.0);
        for (System sys : kFourSystems)
            cells.push_back({"fig11", sys, info.name, cfg, {}});
    }
    for (const auto &info : workloads::allWorkloads())
        cells.push_back({"fig14", System::Hmm, info.name, osf2, {}});
    return cells;
}

std::vector<EngineCell>
servingCells(std::uint64_t seed, std::uint64_t requests)
{
    std::vector<EngineCell> cells;
    for (double osf : {2.0, 4.0, 8.0, 16.0}) {
        RuntimeConfig base = seededDefault(seed);
        base.setOversubscription(osf);
        const auto tenants = servingTenants(base.numPages, requests, seed);
        for (bool qos : {false, true}) {
            EngineCell cell{"tenants", System::GmtReuse, {}, base, tenants};
            // harness::runTenants fills the layout in for the shared
            // cell; the QoS knobs need it too.
            setPageBounds(cell.cfg, tenants);
            if (qos)
                applyQos(cell.cfg);
            applySlo(cell.cfg);
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

std::unique_ptr<gpu::AccessStream>
makeStream(const EngineCell &cell)
{
    if (!cell.tenants.empty()) {
        workloads::TenantScheduleConfig sc;
        sc.computeNsPerAccess = gpu::EngineConfig{}.computeNsPerAccess;
        return workloads::makeTenantStream(cell.tenants, sc);
    }
    // harness::runSystem's sizing.
    workloads::WorkloadConfig wc;
    wc.pages = cell.cfg.numPages;
    wc.warps = 64;
    wc.seed = cell.cfg.seed + 13;
    return workloads::makeWorkload(cell.app, wc);
}

ExperimentResult
harvest(const TieredRuntime &runtime, gpu::AccessStream &stream,
        const gpu::RunResult &run, SimTime flushed)
{
    const auto &c = runtime.counters();
    ExperimentResult r;
    r.system = runtime.name();
    r.workload = stream.name();
    r.makespanNs = flushed;
    r.accesses = c.value("accesses");
    r.tier1Hits = c.value("tier1_hits");
    r.tier1Misses = c.value("tier1_misses");
    r.tier2Lookups = c.value("tier2_lookups");
    r.tier2Hits = c.value("tier2_hits");
    r.wastefulLookups = c.value("wasteful_lookups");
    r.ssdReads = c.value("ssd_reads");
    r.ssdWrites = c.value("ssd_writes");
    r.tier1Evictions = c.value("tier1_evictions");
    r.evictToTier2 = c.value("evict_to_tier2");
    r.tier2Fetches = c.value("tier2_fetches");
    r.predTotal = c.value("pred_total");
    r.predCorrect = c.value("pred_correct");
    r.overflowRedirects = c.value("overflow_redirects");
    r.prefetches = c.value("prefetches");
    r.fastPathHits = run.fastPathHits;

    if (gpu::serving::ServingHooks *hooks = stream.serving()) {
        for (unsigned t = 0; t < hooks->numTenants(); ++t) {
            const gpu::serving::TenantSnapshot s = hooks->snapshot(t);
            harness::TenantResult tr;
            tr.tenant = s.name;
            tr.requests = s.requests;
            tr.accesses = s.counters.accesses;
            tr.tier1Hits = s.counters.tier1Hits;
            tr.tier2Hits = s.counters.tier2Hits;
            tr.faults = s.counters.faults;
            tr.p50Ns = s.latency->percentile(50);
            tr.p95Ns = s.latency->percentile(95);
            tr.p99Ns = s.latency->percentile(99);
            tr.maxNs = s.latency->max();
            tr.sumNs = s.latency->sum();
            r.tenants.push_back(std::move(tr));
        }
    }
    return r;
}

std::vector<TransferCell>
transferCells(std::uint64_t seed)
{
    const pcie::TransferScheme schemes[kFig6Schemes] = {
        pcie::TransferScheme::DmaOnly,   pcie::TransferScheme::ZeroCopyOnly,
        pcie::TransferScheme::Hybrid8T,  pcie::TransferScheme::Hybrid16T,
        pcie::TransferScheme::Hybrid32T,
    };
    std::vector<TransferCell> cells;
    for (double skew : {1.0, 0.8, 0.6, 0.4, 0.2, 0.0})
        for (pcie::TransferScheme scheme : schemes)
            cells.push_back({skew, scheme, 42 + (seed - kDevSeed)});
    return cells;
}

TransferRig::TransferRig(const TransferCell &cell)
    : link("pcie", pcie::kLinkBandwidth, pcie::kLinkLatencyNs),
      tm(link, cell.scheme), rng(cell.rngSeed), zipf(2048, cell.skew)
{
}

TransferResult
runTransfer(TransferRig &rig, LayerSpans *spans)
{
    return spans ? zipfBandwidth<true>(rig, spans)
                 : zipfBandwidth<false>(rig, nullptr);
}

std::string
formatResult(const ExperimentResult &r)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s %s makespan=%" PRIu64 " acc=%" PRIu64 " t1h=%" PRIu64
        " t1m=%" PRIu64 " t2l=%" PRIu64 " t2h=%" PRIu64 " waste=%" PRIu64
        " ssdr=%" PRIu64 " ssdw=%" PRIu64 " evict=%" PRIu64
        " to_t2=%" PRIu64 " t2f=%" PRIu64 " pred=%" PRIu64 "/%" PRIu64
        " ovf=%" PRIu64 " pf=%" PRIu64 " fast=%" PRIu64,
        r.system.c_str(), r.workload.c_str(), std::uint64_t(r.makespanNs),
        r.accesses, r.tier1Hits, r.tier1Misses, r.tier2Lookups,
        r.tier2Hits, r.wastefulLookups, r.ssdReads, r.ssdWrites,
        r.tier1Evictions, r.evictToTier2, r.tier2Fetches, r.predCorrect,
        r.predTotal, r.overflowRedirects, r.prefetches, r.fastPathHits);
    std::string line = buf;
    for (const harness::TenantResult &t : r.tenants) {
        std::snprintf(buf, sizeof(buf),
                      " [%s req=%" PRIu64 " acc=%" PRIu64 " t1h=%" PRIu64
                      " t2h=%" PRIu64 " faults=%" PRIu64 " p50=%" PRIu64
                      " p95=%" PRIu64 " p99=%" PRIu64 " max=%" PRIu64
                      " sum=%" PRIu64 "]",
                      t.tenant.c_str(), t.requests, t.accesses, t.tier1Hits,
                      t.tier2Hits, t.faults, std::uint64_t(t.p50Ns),
                      std::uint64_t(t.p95Ns), std::uint64_t(t.p99Ns),
                      std::uint64_t(t.maxNs), t.sumNs);
        line += buf;
    }
    return line;
}

std::string
formatResult(const TransferResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "bw=%.17g bytes=%" PRIu64 " lanes=%" PRIu64
                  " moved=%" PRIu64 " end=%" PRIu64,
                  r.bandwidthGBs, r.bytes, r.lanes, r.pagesMoved,
                  std::uint64_t(r.endNs));
    return buf;
}

std::string
checkInvariants(const ExperimentResult &r)
{
    if (r.accesses == 0)
        return "no accesses";
    if (r.accesses != r.tier1Hits + r.tier1Misses)
        return "accesses != tier1_hits + tier1_misses";
    if (r.tier1Misses != r.tier2Hits + r.ssdReads)
        return "tier1_misses != tier2_hits + ssd_reads";
    std::uint64_t tenant_accesses = 0;
    for (const harness::TenantResult &t : r.tenants)
        tenant_accesses += t.accesses;
    if (!r.tenants.empty() && tenant_accesses != r.accesses)
        return "tenant accesses do not sum to accesses";
    return {};
}

std::string
checkInvariants(const TransferResult &r)
{
    if (r.pagesMoved * kPageBytes != r.bytes)
        return "transfer manager moved a different byte count";
    if (r.bytes > r.lanes * kPageBytes)
        return "more pages moved than lanes requested";
    if (!(std::isfinite(r.bandwidthGBs) && r.bandwidthGBs > 0.0))
        return "bandwidth not a positive number";
    return {};
}

double
paperReuseSpeedup(const std::string &app)
{
    // Per-app GMT-Reuse speedups read off the paper's Figure 8a bars.
    static const std::map<std::string, double> paper_reuse = {
        {"lavaMD", 0.88},    {"Pathfinder", 1.25},
        {"BFS", 1.28},       {"MultiVectorAdd", 1.40},
        {"Srad", 2.33},      {"Backprop", 2.79},
        {"PageRank", 1.18},  {"SSSP", 1.13},
        {"Hotspot", 2.25},
    };
    return paper_reuse.at(app);
}

} // namespace perfbench
