// Telemetry metric catalogue and histogram macro layer.
//
// Counters have one owner each.  The engines count every protocol event
// once, in their own stats (EngineStats, TptStats, RecoveryFsm); an engine's
// TelemetryBatch holds a reference to each of those running totals and, at
// every flush, publishes the growth since the previous flush into the
// process-wide MetricRegistry.  No instrumentation statement sits beside an
// event, so the registry cannot drift from the owner's count.
//
// Histograms are still observed directly, at the protocol's observable
// moments (SAT rotation, access delay, join latency, SAT_REC recovery):
// WRT_OBSERVE is one bucket-index computation plus a relaxed atomic add on
// the registry, WRT_BATCH_OBSERVE stages the same into an engine's batch.
// With WRT_TELEMETRY=OFF every macro expands to `((void)0)` and no engine
// registers its counters, so the hot path is bit-for-bit the release binary
// (check.sh --telemetry-gate relies on this).
//
// The counter/histogram ids are closed enums rather than string keys: the
// hot path never hashes, and the exporters recover stable snake_case names
// from the tables below.  Pure observation only — nothing in this layer may
// feed back into protocol decisions, which is what keeps the --digest
// output identical whether telemetry is compiled in or out.
#pragma once

#include <cstddef>
#include <cstdint>

#ifndef WRT_TELEMETRY_LEVEL
#define WRT_TELEMETRY_LEVEL 1
#endif

namespace wrt::telemetry {

inline constexpr bool kTelemetryEnabled = WRT_TELEMETRY_LEVEL != 0;

/// Monotonic counters.  Keep in sync with counter_name().
enum class CounterId : std::uint16_t {
  kSlotsStepped = 0,      ///< engine MAC slots advanced
  kSatHandoffs,           ///< SAT released downstream (link traversals)
  kSatArrivals,           ///< SAT arrivals at a station
  kSatHolds,              ///< SAT seized by a not-satisfied station
  kTxRealTime,            ///< local injections, Premium (l quota)
  kTxAssured,             ///< local injections, Assured (k1 share)
  kTxBestEffort,          ///< local injections, best-effort (k2 share)
  kTransitForwards,       ///< frames forwarded in transit
  kDeliveries,            ///< frames absorbed by their destination
  kFramesLost,            ///< frames dropped on a broken/lossy hop
  kFramesLostRebuild,     ///< in-flight frames discarded by a teardown
  kFramesLostChurn,       ///< in-flight frames discarded by a join update
  kControlMsgsLost,       ///< lost NEXT_FREE / JOIN_REQ / JOIN_ACK
  kJoinRetries,           ///< joiner backoffs after a lost handshake
  kJoins,                 ///< completed join handshakes
  kJoinsRejected,         ///< admission-refused joins
  kLeaves,                ///< completed graceful leaves
  kCutOuts,               ///< SAT_REC cut-outs (incl. graceful)
  kSatLossesDetected,     ///< SAT_TIMER expiries
  kSatRecoveries,         ///< SAT_REC made it back (ring survived)
  kRingRebuilds,          ///< full ring re-formations
  kRapsStarted,           ///< random access periods opened
  kTptTokenPasses,        ///< TPT: token link traversals
  kTptTokenRounds,        ///< TPT: completed token tours
  kTptClaims,             ///< TPT: claim processes started
  kTptTreeRebuilds,       ///< TPT: full tree re-formations
  kSnapshots,             ///< registry snapshots taken
  kRecoveryFsmTransitions,///< RecoveryFsm state changes
  kStaleRecSuppressed,    ///< stale SAT_REC / SF indications suppressed
  kWtrHoldoffs,           ///< rejoins held back by the WTR timer
  kSpuriousCutOuts,       ///< healthy stations cut out by a stale SAT_REC
  kCount_,                ///< sentinel — number of counters
};

/// Fixed-bucket histograms.  Keep in sync with histogram_name() and
/// histogram_layout().
enum class HistogramId : std::uint16_t {
  kSatRotationSlots = 0,  ///< per-station SAT inter-arrival time
  kRtAccessDelaySlots,    ///< real-time packet queue -> first tx
  kBeAccessDelaySlots,    ///< non-real-time packet queue -> first tx
  kQueueDepth,            ///< station queue depth at sample points
  kJoinLatencySlots,      ///< join request -> in ring
  kSatRecSlots,           ///< SAT loss -> SAT restored
  kSatDetectSlots,        ///< SAT loss -> SAT_TIMER detection (MTTD)
  kRecoveryMttrSlots,     ///< RecoveryFsm MTTR: loss -> ring restored
  kCount_,                ///< sentinel — number of histograms
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(CounterId::kCount_);
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(HistogramId::kCount_);

/// Stable snake_case export name of a counter.
[[nodiscard]] const char* counter_name(CounterId id) noexcept;

/// Stable snake_case export name of a histogram.
[[nodiscard]] const char* histogram_name(HistogramId id) noexcept;

/// Bucket layout of a histogram: `bucket_count` linear buckets of `width`
/// starting at `lo`; values past the top land in the overflow bucket.
struct HistogramLayout {
  double lo = 0.0;
  double width = 1.0;
  std::uint32_t bucket_count = 32;
};

[[nodiscard]] HistogramLayout histogram_layout(HistogramId id) noexcept;

}  // namespace wrt::telemetry

// ---------------------------------------------------------------------------
// Histogram macros
// ---------------------------------------------------------------------------
//
//   WRT_OBSERVE(kSatRotationSlots, 42.0);              // registry sample
//   WRT_BATCH_OBSERVE(batch, kQueueDepth, depth);      // staged sample
//   WRT_BATCH_FLUSH(batch);                            // publish the batch
//
// The WRT_BATCH_* variants route through an engine-owned TelemetryBatch
// (plain integer bumps, no atomics) instead of the shared registry; the
// owner flushes periodically via WRT_BATCH_FLUSH, which also publishes its
// counters.  Use them on per-slot / per-frame paths where even an
// uncontended lock add is measurable.

#if WRT_TELEMETRY_LEVEL

#include "telemetry/registry.hpp"

#define WRT_OBSERVE(id, value)                   \
  ::wrt::telemetry::MetricRegistry::instance()   \
      .observe(::wrt::telemetry::HistogramId::id, \
               static_cast<double>(value))
#define WRT_BATCH_OBSERVE(batch, id, value)        \
  (batch).observe(::wrt::telemetry::HistogramId::id, \
                  static_cast<double>(value))
#define WRT_BATCH_FLUSH(batch) (batch).flush()

#else

#define WRT_OBSERVE(id, value) ((void)(value))
#define WRT_BATCH_OBSERVE(batch, id, value) ((void)(value))
#define WRT_BATCH_FLUSH(batch) ((void)0)

#endif
