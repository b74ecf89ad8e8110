/**
 * @file
 * Workload shapes, seeded input generation and the independent
 * references every run is checked against: the single-thread replay
 * of each tenant's stream (bit-identity reference) and the simulator's
 * ground truth next to Linux time-scaling (accuracy reference).
 */

#ifndef BPERF_E2EBENCH_INPUTS_H
#define BPERF_E2EBENCH_INPUTS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/inference.h"
#include "service/session.h"
#include "sim/microarch.h"
#include "sim/ring_buffer.h"

namespace e2e {

/** One workload: tenants, their event sets and how records arrive. */
struct WorkloadSpec
{
    std::string name;
    std::size_t tenants = 0;
    /** Programmable events each tenant opens (open() adds the fixed
     * counters). */
    std::vector<bperf::sim::EventId> events;
    /** HiBench profile of tenant t is profiles[t % size]. */
    std::vector<std::string> profiles;
    /** Window length k in slices. */
    std::size_t windowSlices = 0;
    /** Open-loop slice period; 0 means replay: a round's whole stream
     * is offered at once, as fast as the rings accept it. */
    double slicePeriodSeconds = 0.0;
    /** Every tenant's slice is due at the same tick (otherwise the
     * tenants are spread evenly across the period). */
    bool burst = false;
    /** Slices in each tenant's stream (one round). */
    std::size_t slices = 0;
    /** Ring capacity in records. */
    std::size_t queueCapacity = 0;

    bool paced() const { return slicePeriodSeconds > 0.0; }
};

/** Names of every workload, in run order. */
const std::vector<std::string> &workloadNames();

/** The named workload sized for a run of `seconds`; nullopt for an
 * unknown name. */
std::optional<WorkloadSpec> makeWorkload(const std::string &name,
                                         const bperf::sim::MicroarchDescriptor &uarch,
                                         unsigned seconds);

/** Session configuration of every tenant of the workload (the replay
 * runs the same streaming configuration). */
bperf::service::SessionConfig sessionConfig(const WorkloadSpec &spec);

/** One tenant's generated stream and its references. */
struct TenantInput
{
    std::string profile;
    /** Resolved monitored set (fixed counters + programmable). */
    std::vector<bperf::sim::EventId> monitored;
    /** slices[s]: the records of slice s, in arrival order. */
    std::vector<std::vector<bperf::sim::PerfRecord>> slices;
    /** Per monitored event: multiplexed (not a fixed counter). */
    std::vector<bool> multiplexed;
    /** truth[i][s]: true count of monitored[i] in slice s. */
    std::vector<std::vector<double>> truth;
    /** linux[i][s]: Linux time-scaled estimate of the same. */
    std::vector<std::vector<double>> linux;
};

/** Generate every tenant's stream from `seed` (same seed, same
 * inputs), on up to `threads` threads. */
std::vector<TenantInput> makeInputs(const WorkloadSpec &spec,
                                    const bperf::sim::MicroarchDescriptor &uarch,
                                    std::uint64_t seed, std::size_t threads);

/** A tenant's stream run through one StreamingInference on one
 * thread: the reference the service must reproduce bit for bit. */
struct Replay
{
    /** Latest posterior once every record was consumed (before the
     * close-time flush) — what the shim shows last. */
    std::vector<bperf::core::PosteriorPoint> lastPosterior;
    /** Windows run while consuming the stream. */
    std::uint64_t windows = 0;
    /** endSlice of each of those windows: the slice whose first
     * record completed it. */
    std::vector<std::size_t> windowEndSlice;
    /** Slices assembled while consuming the stream. */
    std::size_t slices = 0;
    /** Thread CPU time of consuming the stream. */
    double cpuSeconds = 0.0;
    /** The full posterior after the close-time flush. */
    bperf::core::InferenceResult result;
};

/** Replay every tenant, on up to `threads` threads. */
std::vector<Replay> replayAll(const WorkloadSpec &spec,
                              const bperf::sim::MicroarchDescriptor &uarch,
                              const std::vector<TenantInput> &inputs,
                              std::size_t threads);

/** Accuracy of posterior series against ground truth, next to Linux
 * scaling, over the multiplexed events. */
struct Accuracy
{
    double linuxErrSum = 0.0;
    double posteriorErrSum = 0.0;
    std::uint64_t points = 0;
    std::uint64_t within1Sigma = 0;
    std::uint64_t within2Sigma = 0;
    /** (tenant, multiplexed event) series scored. */
    std::uint64_t estimates = 0;
    /** Series whose posterior error exceeds Linux scaling's. */
    std::uint64_t worseThanLinux = 0;
    /** Posterior points that are non-finite or have stddev <= 0. */
    std::uint64_t invalidPoints = 0;

    double linuxErrPct() const;
    double posteriorErrPct() const;
};

/** Score one tenant's posterior (a close report) into `acc`. */
void scoreTenant(const TenantInput &input,
                 const bperf::core::InferenceResult &posterior,
                 Accuracy &acc);

/** Bitwise equality of two posterior points. */
bool sameBits(const bperf::core::PosteriorPoint &a,
              const bperf::core::PosteriorPoint &b);

/** Bitwise equality of two posterior series sets. */
bool sameSeries(const bperf::core::InferenceResult &a,
                const bperf::core::InferenceResult &b);

} // namespace e2e

#endif // BPERF_E2EBENCH_INPUTS_H
