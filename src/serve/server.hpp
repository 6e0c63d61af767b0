#ifndef BACO_SERVE_SERVER_HPP_
#define BACO_SERVE_SERVER_HPP_

/**
 * @file
 * The serve loop — one protocol connection against a SessionManager,
 * with an optional Coordinator for server-side evaluation fan-out — and
 * the Acceptor, which multiplexes many such connections over one
 * listening socket (`baco_serve --listen`).
 *
 * The connection opens with a hello/welcome handshake (protocol-version
 * checked), then answers requests until shutdown or transport close.
 * Session requests go to the SessionManager; the run request is handled
 * here: it locks the session (SessionManager::with_study) and advances
 * the session's Study (Study::advance, the step Study::run takes), so a
 * server-side run is one drive() with drive()'s tell step, cache and
 * checkpoint. Evaluations shard over the coordinator's workers when any
 * are attached and run in-process otherwise, under the same (seed,
 * index)-derived noise streams either way.
 *
 * A sync run drives barrier rounds of the request's n. A run request
 * with "async":true (or a server started with async runs forced on) is
 * driven tell-as-results-land with n evaluations in flight instead, and
 * the server emits one result frame per landed evaluation — index,
 * value, feasibility, history size and incumbent — before the final done
 * frame, so the client watches the run progress instead of waiting out
 * the slowest compile. Either kind is refused while the session has a
 * frame-level suggested batch outstanding. A run that throws (an async
 * run whose client is gone, a fleet that lost every worker) answers an
 * error frame; with a checkpoint directory its session is then reloaded
 * on its next request, which tells the run's in-flight work first (see
 * session_manager.hpp).
 *
 * A stats request without a session name is answered with one
 * obs::MetricsRegistry snapshot, entry for entry: connection and accept
 * loop counters (serve.*, acceptor.*), session registry gauges and
 * spill/reload counts (sessions.*), and the coordinator's live runs and
 * workers (coord.*) all live in the registry, so the stats frame,
 * baco_serve's --metrics-file lines and its shutdown log read the same
 * numbers.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"
#include "serve/session_manager.hpp"
#include "serve/transport.hpp"

namespace baco::serve {

class Coordinator;
struct Message;

/** Everything one connection serves against. */
struct ServerContext {
  SessionManager* sessions = nullptr;
  /** Optional worker fleet for server-side run requests (not owned). */
  Coordinator* coordinator = nullptr;
  /** Treat every run request as async (baco_serve --async). */
  bool async_runs = false;
};

/** Connection counters, for logs and tests. */
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  bool handshake_ok = false;
};

/**
 * Serve one connection to completion (shutdown frame, transport close,
 * or failed handshake). Malformed frames are answered with error frames
 * and the connection keeps serving.
 */
ServeStats serve_connection(Transport& transport, const ServerContext& ctx);

/**
 * Same, but with the connection's first frame already read and decoded
 * (the Acceptor consumes it to route worker registrations): validates it
 * as the hello, replies welcome, and serves the request loop.
 */
ServeStats serve_connection(Transport& transport, const ServerContext& ctx,
                            const Message& hello);

/** Acceptor knobs. */
struct AcceptorOptions {
  /** Concurrent session connections; further clients get an error frame. */
  int max_clients = 64;
  /** stop() latency: the accept loop re-checks its flag this often. */
  int poll_ms = 200;
  /** A connection must present its hello within this window. */
  int hello_timeout_ms = 10000;
};

/**
 * The multi-client accept loop: every accepted connection introduces
 * itself with its hello frame — session clients get their own
 * serve_connection thread against the shared SessionManager; worker
 * hellos (role=worker) are attached to the shared Coordinator, growing
 * the evaluation fleet at runtime (including a worker re-registering
 * after a heartbeat death). Sessions lock one at a time and
 * the Coordinator multiplexes concurrent fleet-driven runs over the
 * shared workers (fair scheduling + admission control), so any number
 * of clients can tune concurrently against one server without
 * serializing behind each other's runs.
 *
 * The accept thread never blocks on a connection: each accepted socket
 * immediately gets its own thread, which reads the first frame (with
 * the hello timeout), routes on it and then serves — so a client that
 * connects and sends nothing delays only its own thread, never the
 * accept loop.
 *
 * run() blocks until stop(). stop() is safe from any thread and from a
 * POSIX signal handler (it only flips an atomic and shuts the listener
 * down); run() then closes every live connection, joins its threads and
 * returns. Destroy the Acceptor only after run() has returned.
 *
 * Its counts are registry metrics: acceptor.accepted_total,
 * acceptor.workers_attached_total and acceptor.rejected_total (connections
 * refused for the client cap or a bad first frame), the
 * acceptor.live_clients gauge and its acceptor.peak_clients high-water.
 */
class Acceptor {
 public:
  Acceptor(Listener listener, ServerContext ctx,
           AcceptorOptions opt = AcceptorOptions{});
  ~Acceptor();

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /** Accept and serve until stop(); joins every connection thread. */
  void run();

  /** End run(): stop accepting, close live connections. */
  void stop();

  /** The listening address (TCP port resolved after ephemeral bind). */
  const SocketAddress& address() const { return listener_.address(); }

  /** Session connections being served (counted against max_clients). */
  std::size_t live_clients() const;

 private:
  struct Connection {
    std::shared_ptr<Transport> transport;
    std::thread thread;
    /** Transport ownership moved on (worker attach): reap won't close. */
    std::atomic<bool> released{false};
    std::atomic<bool> done{false};
  };

  /** Thread body: read the first frame, route (worker/client), serve. */
  void route_connection(Connection* conn);
  void reap(bool all);

  Listener listener_;
  ServerContext ctx_;
  AcceptorOptions opt_;
  std::atomic<bool> stopping_{false};

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Connection>> connections_
      BACO_GUARDED_BY(mutex_);
  std::size_t clients_ BACO_GUARDED_BY(mutex_) = 0;
};

}  // namespace baco::serve

#endif  // BACO_SERVE_SERVER_HPP_
