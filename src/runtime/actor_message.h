#ifndef DCV_RUNTIME_ACTOR_MESSAGE_H_
#define DCV_RUNTIME_ACTOR_MESSAGE_H_

#include <algorithm>
#include <cstdint>
#include <string_view>

namespace dcv {

/// Address of the coordinator actor; sites are addressed 0..num_sites-1.
inline constexpr int32_t kCoordinatorId = -1;

/// What travels between actors. The runtime deliberately splits two planes:
///
///  * the DATA plane — protocol messages of the detection scheme (alarms,
///    poll rounds, threshold pushes). Their *fate* (loss, delay,
///    duplication, crash black-holing) and their MessageCounter charge are
///    decided by the coordinator-owned fault-injecting `Channel`, exactly
///    as in the lockstep simulator;
///  * the CONTROL plane — virtual-clock synchronization (kEpochStart /
///    kEpochReport) and lifecycle (kShutdown / kSiteDone). Control messages
///    are free: they model the passage of simulated time, not network
///    traffic, and are never charged or faulted.
///
/// The transport itself is reliable; it carries ground truth between
/// threads. This is what makes virtual-time runs bit-identical to the
/// simulator: the Channel consumes the same inputs in the same order no
/// matter how the threads interleave.
enum class ActorMsgKind : uint8_t {
  // Control plane.
  kEpochStart,   ///< Coordinator -> site: observe the window of epochs
                 ///< [epoch, max(value, epoch + 1)); value <= epoch is
                 ///< the one epoch `epoch`. Carries no up state: only
                 ///< the root's channel knows which sites are down.
  kEpochReport,  ///< Site -> coordinator: one per alarmed epoch of a
                 ///< window, plus one for its last epoch; flag = local
                 ///< alarm (value = observed X_i when alarmed, else 0).
  kShutdown,     ///< Coordinator -> site: drain and exit. A range
                 ///< envelope: covers the sites CoveredEnd names.
  kSiteDone,     ///< Site -> coordinator: workload exhausted
                 ///< (value = updates processed).
  // Data plane (free-running mode; virtual mode batches these into the
  // epoch report / poll round).
  kAlarm,            ///< Site -> coordinator: local constraint violated.
  kPollRequest,      ///< Coordinator -> site: report your value at
                     ///< `epoch` if it names an epoch of the last window
                     ///< the worker observed, else your most recent value.
                     ///< A range envelope, like kShutdown: one request
                     ///< covers the sites CoveredEnd names. Unflagged,
                     ///< each covered site answers with its own
                     ///< kPollResponse; flagged (summed), the addressed
                     ///< site answers once with the plain sum of the
                     ///< covered owned sites' values.
  kPollResponse,     ///< Site -> coordinator: current value, or the sum
                     ///< a flagged request asked for.
  kThresholdUpdate,  ///< Coordinator -> site: local threshold (value); only
                     ///< a socket worker's initial sync sends it.
};

std::string_view ActorMsgKindName(ActorMsgKind kind);

/// The two 8-byte fields lead so the 1-byte ones share the tail: every
/// mailbox, outbox and socket box holds Envelopes by value. The wire writes
/// each field explicitly, so this order never reaches it.
struct ActorMessage {
  int64_t epoch = 0;  ///< Virtual epoch (site-local update index when free).
  int64_t value = 0;  ///< Kind-specific payload.
  ActorMsgKind kind = ActorMsgKind::kEpochStart;
  bool flag = false;  ///< kEpochReport: alarmed; kPollRequest: answer
                      ///< with one sum. Unread on every other kind.
};
static_assert(sizeof(ActorMessage) == 24);

/// A routed message: `to`/`from` are actor ids (kCoordinatorId or a site).
struct Envelope {
  int32_t from = kCoordinatorId;
  int32_t to = kCoordinatorId;
  ActorMessage msg;
};
static_assert(sizeof(Envelope) == 32);

/// The covering rule of the two coordinator -> site messages that carry
/// nothing per site. A kPollRequest or kShutdown addressed to site `to`
/// with `value` = e covers every site the receiving worker owns in
/// [to, max(e, to + 1)); with e <= to it covers `to` alone, so a per-site
/// envelope (value 0) keeps its meaning. Every other kind covers `to`
/// alone. Returns the exclusive end of that range. It is not clamped to
/// the fabric: a receiver caps it at num_sites, since `value` may come off
/// the wire.
inline int64_t CoveredEnd(const Envelope& e) {
  const int64_t next = int64_t{e.to} + 1;
  const bool ranged = e.msg.kind == ActorMsgKind::kPollRequest ||
                      e.msg.kind == ActorMsgKind::kShutdown;
  return ranged ? std::max(e.msg.value, next) : next;
}

/// The most epochs one virtual-time window covers: the root sends one
/// ranged kEpochStart per site per window and fetches the window's polled
/// values in one exchange, so a window costs O(1) round trips instead of
/// O(epochs). 65536 / N keeps a window's per-site buffers (engine outbox,
/// synthetic value record, root's poll values) near 64k entries at any N;
/// at N >= 65536 a window is one epoch. Shared by the root, which cuts the
/// windows, and the engine, which caps a window off the wire.
inline int64_t VirtualWindowEpochs(int num_sites) {
  return std::clamp<int64_t>(65536 / std::max(num_sites, 1), 1, 1024);
}

}  // namespace dcv

#endif  // DCV_RUNTIME_ACTOR_MESSAGE_H_
