#include "serve/client.hpp"

#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/transport.hpp"
#include "serve/worker.hpp"
#include "suite/registry.hpp"

namespace baco::serve {

bool
SessionClient::handshake(std::string* error)
{
    Message hello;
    hello.type = MsgType::kHello;
    if (!transport_.send(encode(hello))) {
        if (error)
            *error = "transport closed before hello";
        return false;
    }
    std::string line;
    if (transport_.recv(line, 60000) != RecvStatus::kOk) {
        if (error)
            *error = "no welcome frame";
        return false;
    }
    Message welcome;
    if (!decode(line, welcome) || welcome.type != MsgType::kWelcome) {
        if (error)
            *error = "expected welcome, got: " + line;
        return false;
    }
    return true;
}

Message
SessionClient::rpc(Message request, int timeout_ms)
{
    request.id = next_id_++;
    if (!transport_.send(encode(request)))
        return make_error(request.id, "transport closed on send");
    std::string line;
    for (;;) {
        if (transport_.recv(line, timeout_ms) != RecvStatus::kOk) {
            return make_error(request.id,
                              "transport closed waiting for reply");
        }
        Message reply;
        std::string err;
        if (!decode(line, reply, &err))
            return make_error(request.id, "malformed reply: " + err);
        // Async server runs stream kResult progress frames (same id as
        // the run request) before the terminal kDone — skip them, and
        // skip stale frames from earlier exchanges, or one streamed run
        // would desynchronize every later request/response pair. Server
        // error frames for undecodable requests carry id 0.
        if (reply.type == MsgType::kResult)
            continue;
        if (reply.id == request.id ||
            (reply.type == MsgType::kError && reply.id == 0)) {
            return reply;
        }
    }
}

Message
SessionClient::open(const std::string& session,
                    const std::string& benchmark, const std::string& method,
                    int budget, std::uint64_t seed, bool resume, int doe)
{
    Message m;
    m.type = MsgType::kOpenSession;
    m.session = session;
    m.benchmark = benchmark;
    m.method = method;
    m.budget = budget;
    m.seed = seed;
    m.resume = resume;
    m.doe = doe;
    return rpc(std::move(m));
}

Message
SessionClient::suggest(const std::string& session, int n)
{
    Message m;
    m.type = MsgType::kSuggest;
    m.session = session;
    m.n = n;
    return rpc(std::move(m));
}

Message
SessionClient::observe(const std::string& session,
                       std::vector<ObservedResult> results,
                       double eval_seconds)
{
    Message m;
    m.type = MsgType::kObserve;
    m.session = session;
    m.results = std::move(results);
    m.eval_seconds = eval_seconds;
    return rpc(std::move(m));
}

Message
SessionClient::close(const std::string& session)
{
    Message m;
    m.type = MsgType::kClose;
    m.session = session;
    return rpc(std::move(m));
}

Message
SessionClient::stats(const std::string& session)
{
    Message m;
    m.type = MsgType::kStats;
    m.session = session;
    return rpc(std::move(m));
}

std::vector<double>
drive_session(SessionClient& client, const std::string& session,
              const std::string& benchmark, const std::string& method,
              int budget, std::uint64_t seed, int batch)
{
    auto fail = [&](const std::string& what, const Message& reply) {
        throw std::runtime_error("drive_session " + session + ": " + what +
                                 ": " + reply.text);
    };
    Message opened = client.open(session, benchmark, method, budget, seed);
    if (opened.type != MsgType::kOpened)
        fail("open", opened);

    const Benchmark& bench = suite::find_benchmark(benchmark);
    std::vector<double> values;
    std::uint64_t evals = opened.evals;
    while (evals < static_cast<std::uint64_t>(budget)) {
        Message configs = client.suggest(session, batch);
        if (configs.type != MsgType::kConfigs)
            fail("suggest", configs);
        if (configs.configs.empty())
            break;  // tuner stopped early (budget semantics)
        std::vector<ObservedResult> results;
        results.reserve(configs.configs.size());
        double seconds = 0.0;
        for (std::size_t i = 0; i < configs.configs.size(); ++i) {
            ObservedResult r;
            r.config = configs.configs[i];
            EvalResult e = evaluate_on(bench, r.config, seed,
                                       configs.index + i, &seconds);
            r.value = e.value;
            r.feasible = e.feasible;
            values.push_back(e.value);
            results.push_back(std::move(r));
        }
        Message ok = client.observe(session, std::move(results), seconds);
        if (ok.type != MsgType::kOk)
            fail("observe", ok);
        evals = ok.evals;
    }
    Message closed = client.close(session);
    if (closed.type != MsgType::kOk)
        fail("close", closed);
    return values;
}

std::vector<double>
sequential_session_values(const std::string& session,
                          const std::string& benchmark,
                          const std::string& method, int budget,
                          std::uint64_t seed, int batch)
{
    SessionManager sessions;
    ServerContext ctx;
    ctx.sessions = &sessions;
    auto [client_end, server_end] = loopback_pair();
    std::thread server(
        [&ctx, t = std::shared_ptr<Transport>(std::move(server_end))] {
            serve_connection(*t, ctx);
        });
    SessionClient client(*client_end);
    std::vector<double> values;
    if (client.handshake()) {
        values = drive_session(client, session, benchmark, method, budget,
                               seed, batch);
    }
    Message bye;
    bye.type = MsgType::kShutdown;
    client_end->send(encode(bye));
    server.join();
    return values;
}

SocketParityResult
socket_parity_check(const std::string& listen_spec,
                    const std::string& benchmark, const std::string& method,
                    int budget, int batch, std::uint64_t seed1,
                    std::uint64_t seed2)
{
    SocketParityResult result;
    std::vector<double> ref1 = sequential_session_values(
        "alpha", benchmark, method, budget, seed1, batch);
    std::vector<double> ref2 = sequential_session_values(
        "beta", benchmark, method, budget, seed2, batch);
    if (ref1.empty() || ref2.empty()) {
        result.detail = "sequential reference produced no history";
        return result;
    }
    result.evals_per_client = ref1.size();

    std::optional<SocketAddress> addr =
        parse_socket_address(listen_spec, &result.detail);
    if (!addr)
        return result;
    Listener listener;
    if (!listener.open(*addr, &result.detail))
        return result;
    SessionManager sessions;
    ServerContext ctx;
    ctx.sessions = &sessions;
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    Acceptor acceptor(std::move(listener), ctx);
    std::string address = acceptor.address().str();
    std::thread server([&acceptor] { acceptor.run(); });

    std::vector<double> got1, got2;
    auto drive = [&](const std::string& name, std::uint64_t seed,
                     std::vector<double>& out) {
        try {
            std::unique_ptr<Transport> t = connect_socket(address);
            if (!t)
                return;
            SessionClient client(*t);
            if (client.handshake()) {
                out = drive_session(client, name, benchmark, method,
                                    budget, seed, batch);
            }
        } catch (const std::exception&) {
            out.clear();  // diverging is reported below, not thrown
        }
    };
    std::thread c1(drive, "alpha", seed1, std::ref(got1));
    std::thread c2(drive, "beta", seed2, std::ref(got2));
    c1.join();
    c2.join();
    acceptor.stop();
    server.join();

    result.metrics =
        obs::MetricsRegistry::global().snapshot().delta_since(before);
    if (got1 == ref1 && got2 == ref2) {
        result.ok = true;
    } else {
        result.detail =
            "concurrent socket histories diverge from the sequential "
            "references";
    }
    return result;
}

}  // namespace baco::serve
