#ifndef DCV_RUNTIME_CHAOS_H_
#define DCV_RUNTIME_CHAOS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "runtime/transport.h"

namespace dcv {

/// What the chaos harness breaks mid-run. Chaos is *runtime* fault
/// injection — it severs a transport link — as opposed to the FaultSpec
/// Channel, which models the paper's lossy network between sites and
/// coordinator. The two compose: a chaos run still routes every protocol
/// message through the Channel.
enum class ChaosKind : uint8_t {
  kNone = 0,
  /// Sever the TCP link to one site-worker mid-run (socket transport
  /// only). The worker redials, the handshake fences stale generations,
  /// and unacked envelopes are replayed — detections are unaffected.
  kKillWorker,
};

/// A chaos scenario: what to break, resolved where/when from the seed.
struct ChaosSpec {
  ChaosKind kind = ChaosKind::kNone;
  uint64_t seed = 0;

  bool enabled() const { return kind != ChaosKind::kNone; }
};

/// Where and when the chaos fires, resolved deterministically from the
/// spec's seed so every run of the same scenario breaks the same way.
struct ResolvedChaos {
  int target = -1;          ///< The worker whose link is severed.
  int64_t fire_epoch = -1;  ///< The epoch the chaos fires at.
};

namespace chaos_internal {
inline uint64_t Splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace chaos_internal

/// Resolves a spec against the run's shape: `num_targets` is the worker
/// count, and `num_epochs` bounds the fire epoch. The fire epoch lands in
/// [1, num_epochs - 1] when the run is long enough (never epoch 0, so the
/// steady state is established first, and never past the end).
inline ResolvedChaos ResolveChaos(const ChaosSpec& spec, int64_t num_epochs,
                                  int num_targets) {
  ResolvedChaos r;
  if (!spec.enabled() || num_targets < 1) {
    return r;
  }
  const uint64_t a = chaos_internal::Splitmix64(spec.seed);
  const uint64_t b = chaos_internal::Splitmix64(a);
  r.target = static_cast<int>(a % static_cast<uint64_t>(num_targets));
  const int64_t span = num_epochs > 2 ? num_epochs - 2 : 1;
  r.fire_epoch = 1 + static_cast<int64_t>(b % static_cast<uint64_t>(span));
  return r;
}

/// Whether `chaos` can fire in a run of this shape. The runtime checks it
/// before it builds any transport, so a socket run fails before it waits
/// for its workers. Kill-worker fires at an epoch boundary, which only
/// virtual time has, and severs a TCP link, which only the socket transport
/// has.
inline Status CheckChaosFits(const ChaosSpec& chaos, bool virtual_time,
                             TransportKind transport) {
  if (chaos.kind == ChaosKind::kKillWorker && !virtual_time) {
    return InvalidArgumentError(
        "kill-worker chaos needs virtual time: a free-running run never "
        "fires it");
  }
  if (chaos.kind == ChaosKind::kKillWorker &&
      transport != TransportKind::kSocket) {
    return InvalidArgumentError(
        "kill-worker chaos needs the socket transport: there is no "
        "connection to sever in-process");
  }
  return OkStatus();
}

/// Parses the `--chaos` flag values; "none" (or empty) disables chaos.
inline Result<ChaosKind> ParseChaosKind(std::string_view text) {
  if (text.empty() || text == "none") {
    return ChaosKind::kNone;
  }
  if (text == "kill-worker") {
    return ChaosKind::kKillWorker;
  }
  return InvalidArgumentError(
      "unknown chaos kind '" + std::string(text) +
      "' (expected kill-worker or none)");
}

}  // namespace dcv

#endif  // DCV_RUNTIME_CHAOS_H_
