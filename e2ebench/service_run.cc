#include "service_run.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "service/monitor_service.h"
#include "shim/snapshot_reader.h"
#include "telemetry/telemetry.h"

using namespace bperf;

namespace e2e {

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr std::size_t kSetupReps = 25;
/** Lead between scheduling a round and its first due time. */
constexpr std::uint64_t kLeadNs = 2'000'000;
/** The generator sleeps until this close to a due time, then spins. */
constexpr std::uint64_t kSpinNs = 50'000;
/** A window not visible this long after the last offer is missing. */
constexpr std::uint64_t kVisibleTimeoutNs = 20'000'000'000ull;
/** Heap sampling period while the service runs. */
constexpr std::uint64_t kHeapPeriodNs = 50'000'000;

/** What the reader and the subscription learn about one window. */
struct WindowObs
{
    std::uint64_t dueNs = 0;
    /** The reader first saw this window or a later one. */
    std::uint64_t seenNs = 0;
    /** Shim publish stamp, when the reader read this window itself. */
    std::uint64_t shimStampNs = 0;
    /** Program-stamped phases (traced runs, via the subscription). */
    core::WindowSpan span;
};

/** One live session as the reader tracks it. */
struct Track
{
    service::SessionId id = 0;
    std::int64_t lastSeen = -1;
    std::vector<WindowObs> windows;
    shim::PosteriorSnapshot last;
    std::uint64_t invalid = 0;
};

struct ReaderTally
{
    NsHistogram *readNs = nullptr;
    std::uint64_t ok = 0;
    std::uint64_t retries = 0;
    std::uint64_t failed = 0;
    std::uint64_t writerDead = 0;
};

/** Poll every session's slot until `stop`; raise `done` once every
 * expected window was seen. */
void
readerLoop(const shim::SnapshotReader &reader, std::vector<Track> &tracks,
           ReaderTally &tally, std::atomic<bool> &stop,
           std::atomic<bool> &done)
{
    shim::PosteriorSnapshot snap;
    while (!stop.load(std::memory_order_acquire)) {
        bool all = true;
        for (Track &tr : tracks) {
            const std::uint64_t a = nowNs();
            const shim::ReadStatus st = reader.read(tr.id, snap);
            const std::uint64_t b = nowNs();
            const std::int64_t expected =
                static_cast<std::int64_t>(tr.windows.size());
            if (st != shim::ReadStatus::Ok) {
                // Not found before the first publish is the normal
                // start of a session, not a failed read.  A WriterDead
                // verdict on this live writer (a worker descheduled
                // mid-publish) comes and goes with scheduling, so it
                // is counted apart from failures.
                if (st == shim::ReadStatus::WriterDead)
                    ++tally.writerDead;
                else if (st != shim::ReadStatus::NotFound || tr.lastSeen >= 0)
                    ++tally.failed;
                all = all && tr.lastSeen + 1 >= expected;
                continue;
            }
            tally.readNs->add(b - a);
            ++tally.ok;
            tally.retries += snap.retries;
            const std::int64_t w = static_cast<std::int64_t>(snap.windowIndex);
            if (w > tr.lastSeen) {
                for (std::int64_t i = tr.lastSeen + 1; i <= w && i < expected;
                     ++i)
                    tr.windows[static_cast<std::size_t>(i)].seenNs = b;
                if (w < expected)
                    tr.windows[static_cast<std::size_t>(w)].shimStampNs =
                        snap.publishNanos;
                tr.lastSeen = w;
                for (const auto &c : snap.counters)
                    if (!std::isfinite(c.posterior.mean) ||
                        !std::isfinite(c.posterior.stddev) ||
                        !(c.posterior.stddev > 0.0))
                        ++tr.invalid;
                std::swap(tr.last, snap);
            }
            all = all && tr.lastSeen + 1 >= expected;
        }
        if (all)
            done.store(true, std::memory_order_release);
    }
}

/** Sleep, then spin, until the steady clock reaches `due`. */
void
waitUntil(std::uint64_t due)
{
    for (;;) {
        const std::uint64_t now = nowNs();
        if (now >= due)
            return;
        if (due - now > kSpinNs)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(due - now - kSpinNs));
    }
}

/** When tenant t's slice s is due, relative to the round start:
 * open-loop tenants are spread evenly across the slice period unless
 * the workload bursts; a replay offers everything at once. */
std::uint64_t
dueOffsetNs(const WorkloadSpec &spec, std::size_t t, std::size_t s)
{
    double slots = static_cast<double>(s);
    if (spec.paced() && !spec.burst)
        slots += static_cast<double>(t) / static_cast<double>(spec.tenants);
    return static_cast<std::uint64_t>(spec.slicePeriodSeconds * 1e9 * slots);
}

/** One offer: a tenant's slice batch and when it is due. */
struct Offer
{
    std::uint64_t dueNs = 0;
    std::size_t tenant = 0;
    std::size_t slice = 0;
};

/** Every offer of a round, in due order (slice-major on ties). */
std::vector<Offer>
schedule(const WorkloadSpec &spec)
{
    std::vector<Offer> offers;
    offers.reserve(spec.tenants * spec.slices);
    for (std::size_t s = 0; s < spec.slices; ++s)
        for (std::size_t t = 0; t < spec.tenants; ++t)
            offers.push_back({dueOffsetNs(spec, t, s), t, s});
    std::stable_sort(offers.begin(), offers.end(),
                     [](const Offer &a, const Offer &b) {
                         return a.dueNs < b.dueNs;
                     });
    return offers;
}

double
usBetween(std::uint64_t from, std::uint64_t to)
{
    return 1e-3 * (static_cast<double>(to) - static_cast<double>(from));
}

} // namespace

ServiceRun
runService(const WorkloadSpec &spec, const sim::MicroarchDescriptor &uarch,
           const std::vector<TenantInput> &inputs,
           const std::vector<Replay> &replays, unsigned seconds, bool traced)
{
    ServiceRun run;
    telemetry::setEnabled(traced);

    service::MonitorServiceConfig cfg;
    cfg.numWorkers = kWorkers;
    cfg.sessionDefaults = sessionConfig(spec);
    cfg.snapshot.enabled = true;
    cfg.snapshot.slots = std::max<std::size_t>(64, spec.tenants + 1);
    cfg.snapshot.maxEvents = 32;
    cfg.subscriberQueueCapacity = 1 << 14;

    // What the reader writes during a round is allocated up front, so
    // the heap growth below is the service's own.
    std::vector<Track> tracks(spec.tenants);
    for (std::size_t t = 0; t < spec.tenants; ++t)
        tracks[t].windows.resize(replays[t].windows);
    const std::vector<Offer> offers = schedule(spec);
    std::vector<double> late_us(offers.size()), ingest_ns(offers.size());
    run.baselineHeapBytes = heapBytes();
    run.peakHeapBytes = run.baselineHeapBytes;

    std::unique_ptr<service::MonitorService> svc;
    std::unique_ptr<shim::SnapshotReader> reader;
    auto open_all = [&] {
        for (std::size_t t = 0; t < spec.tenants; ++t) {
            const service::OpenResult opened =
                svc->open("tenant-" + std::to_string(t), spec.events);
            tracks[t].id = *opened.id;
        }
    };
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        const std::uint64_t a = nowNs();
        svc = std::make_unique<service::MonitorService>(uarch, cfg);
        open_all();
        reader = std::make_unique<shim::SnapshotReader>(*svc->snapshotRegion());
        run.setupSeconds.push_back(1e-9 * static_cast<double>(nowNs() - a));
        if (rep + 1 < kSetupReps) {
            reader.reset();
            for (const Track &tr : tracks)
                svc->close(tr.id);
            svc.reset();
        }
    }
    for (std::size_t t = 0; t < spec.tenants; ++t)
        if (svc->monitoredEvents(tracks[t].id) != inputs[t].monitored)
            ++run.seriesMismatches;

    const std::uint64_t measure_start = nowNs();
    std::uint64_t next_heap = 0;
    auto sample_heap = [&](std::uint64_t now) {
        if (now < next_heap)
            return;
        next_heap = now + kHeapPeriodNs;
        run.peakHeapBytes = std::max(run.peakHeapBytes, heapBytes());
    };

    for (;;) {
        if (run.rounds > 0)
            open_all();
        std::vector<service::SubscriptionId> subs;
        for (Track &tr : tracks) {
            tr.lastSeen = -1;
            tr.invalid = 0;
            std::fill(tr.windows.begin(), tr.windows.end(), WindowObs{});
            if (traced)
                subs.push_back(*svc->subscribe(
                    tr.id, [obs = &tr.windows](const service::WindowUpdate &u) {
                        if (u.windowIndex < obs->size())
                            (*obs)[u.windowIndex].span = u.execution.span;
                    }));
        }
        const std::uint64_t slices_before =
            svc->stats().totals.slicesAssembled;

        std::atomic<bool> stop{false}, done{false};
        ReaderTally tally;
        tally.readNs = &run.readNs;
        std::thread reader_thread(readerLoop, std::cref(*reader),
                                  std::ref(tracks), std::ref(tally),
                                  std::ref(stop), std::ref(done));
        // Stops and joins the reader on every way out of this round.
        struct Joiner
        {
            std::atomic<bool> &stop;
            std::thread &thread;
            ~Joiner()
            {
                stop.store(true, std::memory_order_release);
                if (thread.joinable())
                    thread.join();
            }
        } joiner{stop, reader_thread};
        const clockid_t reader_clock = threadClock(reader_thread.native_handle());

        const std::uint64_t t0 = nowNs() + kLeadNs;
        for (std::size_t t = 0; t < spec.tenants; ++t)
            for (std::size_t w = 0; w < tracks[t].windows.size(); ++w)
                tracks[t].windows[w].dueNs =
                    t0 + dueOffsetNs(spec, t, replays[t].windowEndSlice[w]);

        waitUntil(t0);
        const double proc0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
        const double main0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
        const double reader0 = cpuSeconds(reader_clock);
        const std::uint64_t first_offer = nowNs();
        for (std::size_t i = 0; i < offers.size(); ++i) {
            const Offer &o = offers[i];
            const std::uint64_t due = t0 + o.dueNs;
            if (spec.paced())
                waitUntil(due);
            const std::uint64_t a = nowNs();
            const auto &batch = inputs[o.tenant].slices[o.slice];
            const std::size_t accepted =
                svc->ingestBatch(tracks[o.tenant].id, batch);
            const std::uint64_t b = nowNs();
            late_us[i] = usBetween(due, a);
            ingest_ns[i] = static_cast<double>(b - a);
            run.recordsOffered += batch.size();
            run.recordsDropped += batch.size() - accepted;
            sample_heap(b);
        }
        const std::uint64_t last_offer = nowNs();
        while (!done.load(std::memory_order_acquire)) {
            const std::uint64_t now = nowNs();
            if (now - last_offer > kVisibleTimeoutNs)
                break;
            sample_heap(now);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        // The reader keeps polling until stopped, so its clock is
        // still readable here, at the same instant as the others.
        const bool all_visible = done.load(std::memory_order_acquire);
        const double proc1 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
        const double main1 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
        const double reader1 = cpuSeconds(reader_clock);
        stop.store(true, std::memory_order_release);
        reader_thread.join();
        run.peakHeapBytes = std::max(run.peakHeapBytes, heapBytes());

        run.lateUs.insert(run.lateUs.end(), late_us.begin(), late_us.end());
        run.ingestCallNs.insert(run.ingestCallNs.end(), ingest_ns.begin(),
                                ingest_ns.end());
        run.readsWriterDead += tally.writerDead;
        run.readsOk += tally.ok;
        run.readRetries += tally.retries;
        run.readsFailed += tally.failed;
        // Stats are published at the end of each drain pass; let the
        // workers finish the tail of the stream before reading them.
        svc->quiesce();
        const std::uint64_t round_slices =
            svc->stats().totals.slicesAssembled - slices_before;
        run.slicesInferred += round_slices;

        std::uint64_t last_seen = first_offer;
        for (std::size_t t = 0; t < spec.tenants; ++t) {
            Track &tr = tracks[t];
            run.windowsExpected += tr.windows.size();
            run.invalidPosteriors += tr.invalid;
            for (const WindowObs &w : tr.windows) {
                if (w.seenNs == 0)
                    continue;
                ++run.windowsVisible;
                if (w.shimStampNs == 0)
                    ++run.windowsSuperseded;
                last_seen = std::max(last_seen, w.seenNs);
                run.freshUs.push_back(usBetween(w.dueNs, w.seenNs));
            }
        }
        const double round_wall =
            1e-9 * static_cast<double>(last_seen - first_offer);
        const double round_cpu =
            (proc1 - proc0) - (main1 - main0) - (reader1 - reader0);
        run.roundSlicesPerSecond.push_back(
            static_cast<double>(round_slices) / round_wall);
        run.roundCpuUsPerSlice.push_back(
            1e6 * round_cpu /
            static_cast<double>(std::max<std::uint64_t>(round_slices, 1)));

        // The last window the shim showed must be the replay's last
        // window, bit for bit.
        for (std::size_t t = 0; t < spec.tenants; ++t) {
            const Track &tr = tracks[t];
            const Replay &ref = replays[t];
            bool same = tr.lastSeen + 1 ==
                            static_cast<std::int64_t>(ref.windows) &&
                        tr.last.counters.size() == ref.lastPosterior.size();
            for (std::size_t i = 0; same && i < tr.last.counters.size(); ++i)
                same = tr.last.counters[i].event == inputs[t].monitored[i] &&
                       sameBits(tr.last.counters[i].posterior,
                                ref.lastPosterior[i]);
            if (!same)
                ++run.shimMismatches;
        }

        if (traced) {
            svc->flushSubscriptions();
            for (service::SubscriptionId id : subs)
                svc->unsubscribe(id);
            for (const Track &tr : tracks) {
                for (const WindowObs &w : tr.windows) {
                    if (w.seenNs == 0 || w.shimStampNs == 0)
                        continue;
                    const core::WindowSpan &sp = w.span;
                    if (sp.epStartNanos == 0) {
                        ++run.spansMissing;
                        continue;
                    }
                    // Causal order of one window's stamps.
                    const std::uint64_t chain[] = {
                        w.dueNs,       sp.ingestNanos, sp.assembleNanos,
                        sp.epStartNanos, sp.epEndNanos, sp.publishNanos,
                        w.shimStampNs, w.seenNs};
                    bool ordered = true;
                    for (std::size_t i = 1; i < std::size(chain); ++i)
                        ordered = ordered && chain[i] >= chain[i - 1];
                    if (!ordered) {
                        ++run.spanViolations;
                        continue;
                    }
                    const double queue = usBetween(sp.ingestNanos, sp.assembleNanos);
                    const double a2e = usBetween(sp.assembleNanos, sp.epStartNanos);
                    const double ep = usBetween(sp.epStartNanos, sp.epEndNanos);
                    const double pub = usBetween(sp.epEndNanos, sp.publishNanos);
                    const double vis = usBetween(w.shimStampNs, w.seenNs);
                    run.queueWaitUs.push_back(queue);
                    run.assembleToEpUs.push_back(a2e);
                    run.epUs.push_back(ep);
                    run.publishUs.push_back(pub);
                    run.visibleUs.push_back(vis);
                    run.unattributedUs.push_back(usBetween(w.dueNs, w.seenNs) -
                                                 (queue + a2e + ep + pub + vis));
                }
            }
        }

        const service::ServiceStats stats = svc->stats();
        run.recordsRejected = stats.totals.recordsRejected;
        run.drainPasses = stats.totals.drainPasses;
        for (std::size_t t = 0; t < spec.tenants; ++t) {
            const auto report = svc->close(tracks[t].id);
            if (!report || !sameSeries(report->posterior, replays[t].result)) {
                ++run.seriesMismatches;
                continue;
            }
            if (run.rounds == 0) {
                scoreTenant(inputs[t], report->posterior, run.accuracy);
                const core::InferenceResult &p = report->posterior;
                run.windowsRun += p.windowsRun;
                run.epSweeps += p.epSweepsTotal;
                run.momentEvals += p.epMomentEvaluations;
                run.rank1Updates += p.epRank1Updates;
                run.fullSolves += p.epFullSolves;
            }
        }
        ++run.rounds;
        if (!all_visible || spec.paced() ||
            nowNs() - measure_start >= static_cast<std::uint64_t>(seconds) *
                                           1'000'000'000ull)
            break;
    }
    run.invalidPosteriors += run.accuracy.invalidPoints;
    reader.reset();
    svc.reset();
    telemetry::setEnabled(false);
    return run;
}

} // namespace e2e
