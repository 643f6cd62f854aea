#ifndef DCV_RUNTIME_SOCKET_TRANSPORT_H_
#define DCV_RUNTIME_SOCKET_TRANSPORT_H_

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "runtime/transport.h"
#include "runtime/wire.h"

namespace dcv {

/// The queue fabric of ThreadTransport with a socket on its engine side:
/// the coordinator process listens and accepts exactly one connection per
/// worker process; site workers connect, identify themselves with a
/// versioned handshake (wire.h), and then exchange length-prefixed
/// kEnvelopeBatch frames (a lone envelope travels as a batch of one).
///
/// Every Send*/Recv* call, the routing and the box capacities are
/// ThreadTransport's; this class only pumps boxes over TCP:
///  * Coordinator role: the fabric has the run's shards and one worker box
///    per connection. Reader thread w pushes each validated inbound batch
///    into the shard inboxes with SendBatch (one lane per reader), and
///    writer w drains worker box w onto the socket.
///  * Worker role: the fabric has one shard. The engine's sends land in
///    shard 0's inbox, which the writer drains onto the socket; the reader
///    feeds this worker's box. That outbound inbox is sized for this
///    worker's sites alone, CoordinatorInboxCapacity(MaxWorkerSites), since
///    no other engine feeds it (DESIGN §8).
/// Backpressure is therefore the in-process one: a sender blocks on the
/// bounded box the writer drains when the peer falls behind (the TCP
/// socket adds kernel-buffer slack but never unbounded memory).
///
/// Lifecycle and failure semantics:
///  * Connect retries with bounded attempts and exponential backoff;
///    Listen/AcceptWorkers bound the wait per expected connection. Both
///    surface in SocketStats (and "runtime/socket/*" obs counters).
///  * Without reconnection (the default), a peer closing its stream (EOF)
///    closes the boxes the readers feed: blocked receivers drain and then
///    observe transport-closed, exactly like ThreadTransport::Shutdown.
///    Mid-run resets count as `disconnects`.
///  * Shutdown flushes the outbound boxes (writers drain them before the
///    sockets half-close), so a graceful kShutdown broadcast is never
///    lost, and only then stops the inbound side.
///
/// Mid-run reconnection (Options::allow_reconnect): a lost connection
/// parks this side instead of closing the boxes. Every envelope frame
/// carries a per-direction sequence number and, with reconnection on, each
/// writer retains a bounded ring of sent frames; a returning worker
/// handshakes with a bumped Hello generation (stale connections are fenced
/// off) and each side replays exactly the suffix the peer missed,
/// deduplicating replays by sequence number. The coordinator keeps an
/// acceptor thread running so the resume handshake can land at any time;
/// the worker side actively redials, through the same hello exchange as
/// the first connect. Senders simply block on the bounded boxes during the
/// outage, so no envelope is ever lost — the run resumes bit-identically.
class SocketTransport : public ThreadTransport {
 public:
  struct Options {
    int accept_timeout_ms = 30000;  ///< Per expected worker connection.
    int connect_timeout_ms = 5000;  ///< Per connect() attempt.
    int connect_attempts = 10;      ///< Bounded reconnect budget.
    int connect_backoff_ms = 100;   ///< Doubles per retry, capped at 2 s.
    int io_timeout_ms = 30000;      ///< Handshake reads + steady-state sends.
    bool virtual_time = true;  ///< Coordinator role: mode pushed to workers.

    /// Coordinator role: shard-coordinator fan-in. Reader threads route
    /// each inbound envelope to shard ShardOf(e.from)'s inbox (contiguous
    /// balanced ranges, shard_layout.h). Coordinator-local: the wire
    /// format and the worker handshake are unchanged, workers neither know
    /// nor care how the coordinator process is sharded internally.
    int num_shards = 1;

    /// Survive a dropped worker connection: park instead of closing the
    /// boxes, accept/redial a resume handshake, replay the missed frame
    /// suffix. Both sides must enable it (the worker redials, the
    /// coordinator keeps accepting).
    bool allow_reconnect = false;
    int reconnect_window_ms = 5000;  ///< Park budget before giving up.
    int reconnect_grace_ms = 100;    ///< Worker delay before redialing, so a
                                     ///< graceful shutdown is not mistaken
                                     ///< for a crash.
    size_t replay_capacity = 4096;   ///< Sent-frame ring per connection
                                     ///< (kept only with reconnection).

    obs::MetricsRegistry* metrics = nullptr;
    /// Optional distributed-trace sink: reconnect/replay lifecycle events
    /// are recorded here with wall-clock timestamps.
    obs::TraceRecorder* recorder = nullptr;
  };

  /// Coordinator role: binds and listens on `port` (0 = ephemeral; see
  /// port()). Returns before any worker has connected so the caller can
  /// publish the port; call AcceptWorkers() to complete the fabric.
  static Result<std::unique_ptr<SocketTransport>> Listen(
      int num_sites, int num_workers, int port, const Options& options);

  /// Coordinator role: accepts and handshakes all `num_workers`
  /// connections, then starts the per-connection reader/writer threads
  /// (plus, with allow_reconnect, the resume acceptor thread).
  /// Fails on accept timeout, handshake mismatch, or duplicate workers.
  Status AcceptWorkers();

  /// Worker role: connects to the coordinator (bounded retries) and
  /// handshakes as `worker`. The run mode the coordinator advertises is
  /// available as virtual_time() afterwards.
  static Result<std::unique_ptr<SocketTransport>> Connect(
      const std::string& host, int port, int worker, int num_sites,
      int num_workers, const Options& options);

  ~SocketTransport() override;

  /// Bound listen port (coordinator role; resolves port 0 to the actual).
  int port() const { return port_; }

  /// Worker role: the run mode from the coordinator's handshake ack.
  bool virtual_time() const { return virtual_time_; }

  SocketStats stats() const;

  /// Worker role: estimated coordinator-minus-worker wall-clock offset in
  /// microseconds, from the NTP-style Hello/HelloAck timestamps (refreshed
  /// on every resume handshake). 0 until a handshake completes.
  int64_t clock_offset_us() const {
    return clock_offset_us_.load(std::memory_order_relaxed);
  }

  /// Worker role: serializes and sends a telemetry snapshot directly on the
  /// connection (outside the envelope boxes — telemetry is unsequenced
  /// and must never enter the replay ring). Safe to call concurrently with
  /// envelope traffic; fails if the connection is down (the next push or the
  /// final flush supersedes a lost snapshot anyway).
  Status SendTelemetry(const TelemetryFrame& t);

  /// Coordinator role: latest telemetry frame received from each worker
  /// (cumulative snapshots, so only the newest matters). Entries are
  /// returned worker-ascending; workers that never pushed are absent.
  std::vector<TelemetryFrame> TakeWorkerTelemetry();

  /// Coordinator role: blocks until every worker's final_flush telemetry
  /// frame has arrived or `timeout_ms` elapses. Call after the protocol
  /// run completes and before Shutdown(), so the reader threads are still
  /// consuming the stream tail. Returns false on timeout.
  bool WaitForFinalTelemetry(int timeout_ms);

  /// Two phases: close and flush the outbound boxes (the writers drain
  /// them, then half-close), then stop inbound (sockets down, every box
  /// closed, readers joined).
  void Shutdown() override;

  /// Coordinator role, chaos hook: hard-severs worker `w`'s TCP connection
  /// (both directions), simulating a crash or partition. With
  /// allow_reconnect on both sides the fabric heals via the resume
  /// protocol; without it the run aborts exactly as a real crash would.
  Status InjectPeerFailure(int worker) override;

 private:
  enum class Role { kCoordinator, kWorker };

  /// One SocketStats field plus its "runtime/socket/*" registry twin. Add
  /// bumps both (the field even with observability compiled out).
  struct StatCounter {
    void Add(int64_t n);
    std::atomic<int64_t> value{0};
    obs::Counter* twin = nullptr;
  };

  /// The ledger: each counter, the SocketStats field it fills, its twin.
  struct LedgerEntry {
    StatCounter SocketTransport::*counter;
    int64_t SocketStats::*field;
    const char* name;
  };
  static const LedgerEntry kLedger[];

  /// One TCP connection: the socket and the two threads that pump it
  /// between the fabric's boxes and the wire. Coordinator role has one per
  /// worker; worker role has exactly one (index 0). Reconnection state
  /// lives here too: `generation` names the fd incarnation (bumped by each
  /// successful resume; parked threads wake on the bump), the writer-side
  /// ring holds the replayable sent-frame suffix, and `last_seq_received`
  /// is the receive direction's dedup high-water mark.
  struct Connection {
    std::mutex mu;  ///< Guards fd (for readers), generation, residuals.
    std::condition_variable cv;  ///< Signals generation bumps + shutdown.
    int fd = -1;
    uint32_t generation = 0;
    /// Bytes the handshake read past its own frame (TCP coalescing can put
    /// the first data frames in the same segment as the hello/ack); the
    /// reader thread consumes these before touching the socket.
    std::string residual;
    std::thread reader;
    std::thread writer;

    /// Send direction (guarded by write_mu, which also serializes every
    /// socket write so a resume replay never interleaves mid-frame).
    std::mutex write_mu;
    uint64_t next_send_seq = 1;
    /// Only a resume reads it, so it is filled only with allow_reconnect.
    std::deque<std::pair<uint64_t, std::string>> sent_ring;

    /// Receive direction: highest envelope seq seen (reader-owned, read by
    /// the resume handshake to tell the peer where to resume).
    std::atomic<uint64_t> last_seq_received{0};
  };

  SocketTransport(Role role, ShardLayout layout, int num_workers, int worker,
                  const Options& options);

  /// True iff this side may route an envelope read off the wire: the
  /// coordinator takes only coordinator-bound envelopes from a site in
  /// range, a worker only envelopes for a site it owns. Anything else
  /// would be routed back out, or land in a box no thread drains.
  bool Inbound(const Envelope& e) const;

  /// Worker role: one dial plus the whole hello exchange as incarnation
  /// `generation` (socket options, hello out, ack in and checked, clock
  /// offset refreshed). Returns the fd, with the ack and the bytes read past
  /// it. `*dialed` is false when the TCP connect itself failed, the only
  /// failure Connect retries.
  Result<int> Handshake(uint32_t generation, HelloAckFrame* ack,
                        std::string* residual, bool* dialed);

  /// Coordinator role: the ack side of one hello exchange on an accepted
  /// `fd`. Checks shape and worker range, then asks `verdict` (which may
  /// fill the ack's resume fields), and always writes a stamped ack.
  /// Returns the accepted hello or why it was refused; the caller owns fd.
  Result<HelloFrame> AnswerHello(
      int fd, int timeout_ms,
      const std::function<Status(const HelloFrame&, HelloAckFrame*)>& verdict,
      std::string* residual);

  /// Calls `dial` while `more(attempt)` allows (attempt is 0-based) until
  /// it succeeds, sleeping a backoff between tries that doubles from
  /// connect_backoff_ms up to 2 s. Counts connect attempts and retries.
  bool Redial(const std::function<bool(int)>& more,
              const std::function<bool()>& dial);

  /// Starts the threads of a connection whose fd and handshake tail are set.
  void StartConnection(size_t index);
  void ReaderLoop(size_t index);
  void WriterLoop(size_t index);
  void AcceptorLoop();

  /// Records a wall-stamped reconnect/replay event, if a recorder is set.
  void RecordLifecycle(obs::TraceEventKind kind, int64_t value);

  /// Replays the sent-ring suffix the peer missed onto `fd`, then installs
  /// it as the connection's live socket (bumping the generation and waking
  /// parked reader/writer). False if the gap exceeds the ring or the
  /// replay write fails; the caller closes `fd`.
  bool InstallResumedFd(Connection* c, int fd, uint32_t generation,
                        uint64_t peer_last_seq, std::string residual);

  /// Parks until the connection has a newer incarnation than `seen_gen`.
  /// Worker role actively redials the coordinator while parked. True once
  /// resumed (the new fd and its handshake tail are in the Connection);
  /// false on shutdown or window expiry.
  bool AwaitResume(size_t index, uint32_t seen_gen);

  /// True once `c` has a newer incarnation than `seen_gen`; false on
  /// shutdown or at `deadline`.
  bool AwaitGeneration(Connection* c, uint32_t seen_gen,
                       std::chrono::steady_clock::time_point deadline);

  /// Writes unsequenced control bytes straight onto `c`'s live socket,
  /// outside the envelope boxes and the replay ring. False if the link is
  /// down.
  static bool WriteDirect(Connection* c, const std::string& bytes);

  /// Closes the box connection `index`'s writer drains onto the socket:
  /// worker box `index` at the coordinator, the coordinator-bound shard
  /// inbox at a worker. Further sends fail; queued envelopes still flush.
  void CloseOutbound(size_t index);

  /// Closes the boxes the readers feed: every shard inbox at the
  /// coordinator (no shard can make progress once a worker is gone), this
  /// worker's box at a worker. Blocked receivers drain out exactly as
  /// after ThreadTransport::Shutdown. A coordinator reader skips it when its
  /// worker exits in order (a clean end of stream after its final_flush
  /// telemetry frame): that worker owes nothing more.
  void CloseInbound();

  const Role role_;
  const int worker_;  ///< Worker role: this process's worker index.
  Options options_;

  int listen_fd_ = -1;
  int port_ = 0;
  bool virtual_time_ = true;
  sockaddr_in peer_{};  ///< Worker role: coordinator address for redial.

  std::vector<std::unique_ptr<Connection>> conns_;
  std::thread acceptor_;  ///< Resume acceptor (coordinator, reconnect on).

  std::mutex retired_mu_;
  std::vector<int> retired_fds_;  ///< Fenced stale fds, closed at Shutdown.

  std::atomic<bool> shutting_down_{false};
  std::mutex shutdown_mu_;
  bool shutdown_done_ = false;

  /// Coordinator role: latest-wins telemetry store, one slot per worker.
  std::mutex telemetry_mu_;
  std::condition_variable telemetry_cv_;
  std::vector<TelemetryFrame> worker_telemetry_;
  std::vector<uint8_t> worker_telemetry_valid_;
  std::vector<uint8_t> worker_telemetry_final_;

  /// Worker role: handshake-estimated clock offset (coordinator - worker).
  std::atomic<int64_t> clock_offset_us_{0};

  // Wire-level counters, one per SocketStats field (see kLedger).
  StatCounter frames_sent_;
  StatCounter frames_received_;
  StatCounter bytes_sent_;
  StatCounter bytes_received_;
  StatCounter connect_attempts_;
  StatCounter connect_retries_;
  StatCounter accept_timeouts_;
  StatCounter decode_errors_;
  StatCounter disconnects_;
  StatCounter truncated_frames_;
  StatCounter reconnects_;
  StatCounter replayed_frames_;
  StatCounter duplicate_frames_;
};

}  // namespace dcv

#endif  // DCV_RUNTIME_SOCKET_TRANSPORT_H_
