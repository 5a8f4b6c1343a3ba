/**
 * @file
 * Host-time spans for the traced pass: a cheap tick clock, its
 * calibration, and forwarding wrappers around the two interfaces that
 * gpu::GpuEngine::run drives (TieredRuntime, gpu::AccessStream).
 *
 * The wrappers change no simulated behaviour: every call is forwarded
 * unchanged to the wrapped object, which also keeps every counter. They
 * only count calls and add up the ticks spent inside them.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>

#include "core/runtime.hpp"
#include "gpu/access_stream.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench
{

using Ticks = std::uint64_t;

/** Raw timestamp: the TSC where there is one (a few ns per read),
 *  steady_clock nanoseconds elsewhere. Convert with Calibration. */
inline Ticks
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return Ticks(std::chrono::steady_clock::now().time_since_epoch()
                     .count());
#endif
}

/** Calls into one layer and the ticks spent inside the timed ones.
 *  A Span times every call; see SampledSpan for the hot ones. */
struct Span
{
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    Ticks ticks = 0;

    void
    add(Ticks t)
    {
        ++calls;
        ++timed;
        ticks += t;
    }
};

/**
 * A span over a call made tens of millions of times per pass, where
 * timing every call would cost more than the call: one call in
 * kSampleEvery (picked by a xorshift draw that nothing simulated
 * reads) is timed and the total is scaled up by calls / timed.
 */
struct SampledSpan : Span
{
    static constexpr std::uint64_t kSampleEvery = 64;

    /** Run @p call, timing it if this call is drawn. */
    template <typename F>
    decltype(auto)
    run(std::uint64_t &rng, F &&call)
    {
        ++calls;
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        if (rng % kSampleEvery != 0)
            return call();
        ++timed;
        const Ticks t0 = perfbench::ticks();
        // A guard rather than a temporary: call() may return void.
        struct Stop
        {
            SampledSpan &s;
            Ticks t0;
            ~Stop() { s.ticks += perfbench::ticks() - t0; }
        } stop{*this, t0};
        return call();
    }
};

/**
 * Cost of the timing itself, measured on an empty layer through the
 * same code the wrappers run (one virtual hop plus the span).
 * `insideTicks` is the part of a timed call's cost that lands between
 * its two timestamps; `spanTicks` / `sampledTicks` are the whole
 * average cost of one Span / SampledSpan call, what the enclosing span
 * sees on top of the work.
 */
struct Calibration
{
    double nsPerTick = 1.0;
    double insideTicks = 0.0;
    double spanTicks = 0.0;
    double sampledTicks = 0.0;

    /** Measure the tick rate and the empty-span costs (~0.2 s). */
    static Calibration measure();

    /** Estimated host ns of the work inside all of @p s's calls. */
    double
    workNs(const Span &s) const
    {
        if (s.timed == 0)
            return 0.0;
        const double t = double(s.ticks) - insideTicks * double(s.timed);
        return std::max(t, 0.0) * double(s.calls) / double(s.timed)
            * nsPerTick;
    }

    /** Host ns the timing of @p s added to its caller. */
    double
    overheadNs(const Span &s) const
    {
        return spanTicks * double(s.calls) * nsPerTick;
    }

    double
    overheadNs(const SampledSpan &s) const
    {
        return sampledTicks * double(s.calls) * nsPerTick;
    }
};

/** Runtime-side spans; BaM and HMM cells fill the `baselines` copy. */
struct RuntimeSpans
{
    SampledSpan tryHit;
    std::uint64_t tryHitAccepted = 0;
    SampledSpan access;
    SampledSpan background;
};

/** Spans of one traced pass, by src/ module. */
struct LayerSpans
{
    Span gpuRun;             ///< GpuEngine::run, children included
    RuntimeSpans core;       ///< GMT runtimes
    RuntimeSpans baselines;  ///< BaM and HMM
    Span flush;              ///< TieredRuntime::flush
    Span coreSetup;          ///< makeSystem + TieredRuntime::reset
    Span workloadsSetup;     ///< makeWorkload/makeTenantStream + reset
    SampledSpan next;        ///< AccessStream::nextAccess(At)
    SampledSpan zipf;        ///< ZipfSampler::sample
    Span pcie;               ///< TransferManager::transfer
    Span window;             ///< one fig6b warp window, children included
    Span harnessSetup;       ///< fig6b rig: link, manager, Zipf table
    std::uint64_t pcieBytes = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull; ///< SampledSpan draws

    /** Host ns of GpuEngine::run, timing overhead taken out. */
    double gpuRunNs(const Calibration &c) const;

    /** Host ns the engine spent outside the runtime and stream calls. */
    double gpuSelfNs(const Calibration &c) const;

    /** Host ns the fig6b window loop spent outside zipf and pcie. */
    double filterNs(const Calibration &c) const;
};

/** Times every call the engine makes into a runtime. */
class TimedRuntime final : public gmt::TieredRuntime
{
  public:
    TimedRuntime(gmt::TieredRuntime &inner, RuntimeSpans &spans,
                 LayerSpans &layers)
        : TieredRuntime(inner.config()), in(inner), sp(spans),
          ly(layers)
    {}

    gmt::AccessResult
    access(gmt::SimTime now, gmt::WarpId warp, gmt::PageId page,
           bool is_write) override
    {
        return sp.access.run(ly.rng, [&] {
            return in.access(now, warp, page, is_write);
        });
    }

    bool
    tryHit(gmt::SimTime now, gmt::WarpId warp, gmt::PageId page,
           bool is_write, gmt::AccessResult &out) override
    {
        const bool hit = sp.tryHit.run(ly.rng, [&] {
            return in.tryHit(now, warp, page, is_write, out);
        });
        sp.tryHitAccepted += hit;
        return hit;
    }

    void
    backgroundTick(gmt::SimTime now) override
    {
        sp.background.run(ly.rng, [&] { in.backgroundTick(now); });
    }

    void
    beginSharded(const gmt::sim::ShardPlan &plan) override
    {
        in.beginSharded(plan);
    }

    void endSharded() override { in.endSharded(); }

    gmt::SimTime
    flush(gmt::SimTime now) override
    {
        const Ticks t0 = ticks();
        const gmt::SimTime done = in.flush(now);
        ly.flush.add(ticks() - t0);
        return done;
    }

    const char *name() const override { return in.name(); }

    void
    attachTrace(gmt::trace::TraceSession *session) override
    {
        in.attachTrace(session);
    }

    void
    reset() override
    {
        const Ticks t0 = ticks();
        in.reset();
        ly.coreSetup.add(ticks() - t0);
    }

  private:
    gmt::TieredRuntime &in;
    RuntimeSpans &sp;
    LayerSpans &ly;
};

/** Times every call the engine makes into a workload stream. */
class TimedStream final : public gmt::gpu::AccessStream
{
  public:
    TimedStream(gmt::gpu::AccessStream &inner, LayerSpans &layers)
        : in(inner), ly(layers)
    {}

    unsigned numWarps() const override { return in.numWarps(); }
    std::uint64_t numPages() const override { return in.numPages(); }

    bool
    nextAccess(gmt::WarpId warp, gmt::gpu::Access &out) override
    {
        return ly.next.run(ly.rng,
                           [&] { return in.nextAccess(warp, out); });
    }

    bool
    nextAccessAt(gmt::SimTime now, gmt::WarpId warp,
                 gmt::gpu::Access &out) override
    {
        return ly.next.run(
            ly.rng, [&] { return in.nextAccessAt(now, warp, out); });
    }

    gmt::gpu::serving::ServingHooks *serving() override
    {
        return in.serving();
    }

    void
    attachTrace(gmt::trace::TraceSession *session) override
    {
        in.attachTrace(session);
    }

    void
    beginSharded(const gmt::sim::ShardPlan &plan) override
    {
        in.beginSharded(plan);
    }

    void endSharded() override { in.endSharded(); }

    const std::string &name() const override { return in.name(); }

    void
    reset() override
    {
        const Ticks t0 = ticks();
        in.reset();
        ly.workloadsSetup.add(ticks() - t0);
    }

  private:
    gmt::gpu::AccessStream &in;
    LayerSpans &ly;
};

} // namespace perfbench
