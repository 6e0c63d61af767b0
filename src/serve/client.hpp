#ifndef BACO_SERVE_CLIENT_HPP_
#define BACO_SERVE_CLIENT_HPP_

/**
 * @file
 * The session-side client of the serve protocol: the counterpart of
 * serve_connection for anything that tunes *through* a server — over
 * stdio pipes, a Unix socket, or TCP (see transport.hpp).
 *
 * SessionClient wraps one Transport with the hello/welcome handshake
 * and typed request/response helpers; drive_session() runs the whole
 * suggest → evaluate-locally → observe exchange to budget exhaustion,
 * evaluating the registry benchmark under the protocol's (seed, index)
 * noise streams — the loop baco_serve --selftest and the socket tests
 * pin for bit-for-bit parity across transports and client interleaving.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace baco::serve {

class Transport;

/** One client endpoint of the session protocol. */
class SessionClient {
 public:
  explicit SessionClient(Transport& transport) : transport_(transport) {}

  /** hello/welcome exchange; false (with *error) when it fails. */
  bool handshake(std::string* error = nullptr);

  /**
   * Send one request (its id assigned here) and wait for the matching
   * response. Error frames come back as-is (type kError); a closed or
   * timed-out transport yields a synthesized kError frame.
   */
  Message rpc(Message request, int timeout_ms = 60000);

  Message open(const std::string& session, const std::string& benchmark,
               const std::string& method, int budget, std::uint64_t seed,
               bool resume = false, int doe = 0);
  Message suggest(const std::string& session, int n);
  Message observe(const std::string& session,
                  std::vector<ObservedResult> results,
                  double eval_seconds = 0.0);
  Message close(const std::string& session);
  /**
   * Observability snapshot (kStatsReport): the named session's counters
   * and suggest/observe latency histograms, or — with an empty session
   * name — one snapshot of the server's metrics registry.
   */
  Message stats(const std::string& session = std::string());

 private:
  Transport& transport_;
  std::uint64_t next_id_ = 1;
};

/**
 * Open `session` and drive it to `budget` evaluations through the
 * suggest/observe exchange, batch configurations at a time, evaluating
 * the registry benchmark client-side. Returns the observed objective
 * values in history order (the session's full history signature, since
 * configs and noise are seed-determined). Throws std::runtime_error on
 * any protocol error.
 */
std::vector<double> drive_session(SessionClient& client,
                                  const std::string& session,
                                  const std::string& benchmark,
                                  const std::string& method, int budget,
                                  std::uint64_t seed, int batch);

/**
 * One single-connection session run over an in-process serve loop with
 * its own SessionManager — the stdio-server shape, and the sequential
 * reference of the multi-client parity contract below.
 */
std::vector<double> sequential_session_values(const std::string& session,
                                              const std::string& benchmark,
                                              const std::string& method,
                                              int budget,
                                              std::uint64_t seed,
                                              int batch);

/** Outcome of socket_parity_check(). */
struct SocketParityResult {
  bool ok = false;                  ///< histories matched, non-vacuously
  std::size_t evals_per_client = 0; ///< history length of each client
  /** Registry traffic of the concurrent leg (delta_since its start). */
  obs::MetricsSnapshot metrics;
  std::string detail;               ///< failure description when !ok
};

/**
 * The multi-client parity contract in one callable: drive sessions
 * "alpha" (seed1) and "beta" (seed2) sequentially over
 * single-connection serve loops, then drive the same two sessions
 * CONCURRENTLY as socket clients of one Acceptor listening on
 * listen_spec, and compare the histories bit-for-bit. Shared by
 * `baco_serve --selftest` and tests/test_serve_socket.cpp (which pins
 * it over both unix and tcp listeners).
 */
SocketParityResult socket_parity_check(const std::string& listen_spec,
                                       const std::string& benchmark,
                                       const std::string& method,
                                       int budget, int batch,
                                       std::uint64_t seed1,
                                       std::uint64_t seed2);

}  // namespace baco::serve

#endif  // BACO_SERVE_CLIENT_HPP_
