/**
 * @file
 * The measured part of a run: build the MonitorService with the
 * snapshot shim exported, open one session per tenant, drive the
 * generated streams into it from one generator thread while one
 * reader thread polls the shim, and check what comes out against the
 * single-thread replay.
 */

#ifndef BPERF_E2EBENCH_SERVICE_RUN_H
#define BPERF_E2EBENCH_SERVICE_RUN_H

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "util.h"

namespace e2e {

/** Workers of the service: with the generator and the reader they
 * use 4 threads, the hardware threads of the reference machine. */
inline constexpr std::size_t kWorkers = 2;

/** Everything one run measured and checked. */
struct ServiceRun
{
    /** Service construction + every open() + reader attach, one
     * sample per repetition. */
    std::vector<double> setupSeconds;
    /** Heap bytes in use before the first service was built, and
     * the peak seen while the measured service ran. */
    double baselineHeapBytes = 0.0;
    double peakHeapBytes = 0.0;

    /** Rounds run (paced workloads run one). */
    std::size_t rounds = 0;
    /** Per round: slices the service assembled, divided by the wall
     * time from the first offer to the last window visible. */
    std::vector<double> roundSlicesPerSecond;
    /** Per round: process CPU over the same interval, minus the
     * generator's and the reader's threads, per slice assembled. */
    std::vector<double> roundCpuUsPerSlice;
    /** Slices the service assembled, over all rounds. */
    std::uint64_t slicesInferred = 0;

    /** Per visible window: due time of its completing record to the
     * reader first seeing it (or a later window), microseconds. */
    std::vector<double> freshUs;
    /** Per offered batch: how late the generator offered it (open
     * loop), or how long after the round start (replay), µs. */
    std::vector<double> lateUs;
    /** Per ingestBatch call, nanoseconds. */
    std::vector<double> ingestCallNs;

    /** Timing of every Ok SnapshotReader::read. */
    NsHistogram readNs;
    std::uint64_t readsOk = 0;
    std::uint64_t readRetries = 0;
    /** Non-Ok reads of a session that had already published, other
     * than WriterDead. */
    std::uint64_t readsFailed = 0;
    /** WriterDead verdicts although every writer was alive. */
    std::uint64_t readsWriterDead = 0;

    std::uint64_t recordsOffered = 0;
    std::uint64_t recordsDropped = 0;
    std::uint64_t recordsRejected = 0;
    std::uint64_t drainPasses = 0;

    std::uint64_t windowsExpected = 0;
    std::uint64_t windowsVisible = 0;
    /** Visible only through a later window (overwritten in the shim
     * before the reader polled). */
    std::uint64_t windowsSuperseded = 0;

    /** Sessions that differ from the replay: the last window read
     * from the shim, and the close report's series (or event set). */
    std::uint64_t shimMismatches = 0;
    std::uint64_t seriesMismatches = 0;
    /** Published posterior values that are non-finite or have
     * stddev <= 0 (shim reads and close reports). */
    std::uint64_t invalidPosteriors = 0;

    /** Accuracy of the close reports (first round). */
    Accuracy accuracy;
    /** EP op counts of the close reports (first round). */
    std::uint64_t windowsRun = 0;
    std::uint64_t epSweeps = 0;
    std::uint64_t momentEvals = 0;
    std::uint64_t rank1Updates = 0;
    std::uint64_t fullSolves = 0;

    /** Traced runs: per window read directly, the span stages (µs). */
    std::vector<double> queueWaitUs;
    std::vector<double> assembleToEpUs;
    std::vector<double> epUs;
    std::vector<double> publishUs;
    std::vector<double> visibleUs;
    std::vector<double> unattributedUs;
    /** Windows whose stamps are out of causal order. */
    std::uint64_t spanViolations = 0;
    /** Windows read directly but without a span (subscription drop). */
    std::uint64_t spansMissing = 0;
};

/** Run the workload against the service for about `seconds`. */
ServiceRun runService(const WorkloadSpec &spec,
                      const bperf::sim::MicroarchDescriptor &uarch,
                      const std::vector<TenantInput> &inputs,
                      const std::vector<Replay> &replays, unsigned seconds,
                      bool traced);

} // namespace e2e

#endif // BPERF_E2EBENCH_SERVICE_RUN_H
