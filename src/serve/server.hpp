#pragma once

// The socket front end of mcs_serve: a single-threaded event loop
// (level-triggered epoll -- serve/poller.hpp)
// owning nonblocking sockets with per-connection read/write buffers,
// HTTP/1.1 keep-alive with pipelining, idle/header timeouts (408), and a
// per-connection request cap. The heavy work -- the simulation behind a
// /whatif -- still runs on a bounded TaskPool: the loop parses a request,
// submits it, and keeps multiplexing; workers hand the finished response
// back through a completion queue plus a wake pipe.
//
// Admission control is unchanged in spirit: a full worker queue answers
// 429 + Retry-After immediately (on the still-open connection -- the
// client may retry over the same socket). Graceful stop (SIGTERM in the
// daemon, stop() in tests) closes the listener, finishes every dispatched
// request, answers 503 + Connection: close on every connection without a
// request in flight (accepted-but-unparsed included), flushes, joins,
// exits 0. SIGHUP (request_reload()) swaps the service's snapshot pool
// without dropping a single connection.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/http.hpp"
#include "serve/poller.hpp"
#include "serve/service.hpp"
#include "util/thread_pool.hpp"

namespace mcs::serve {

struct ServerOptions {
    std::string listen = "127.0.0.1";
    int port = 8077;          ///< 0 = ephemeral (tests read port())
    int workers = 0;          ///< <= 0: hardware concurrency
    std::size_t queue_limit = 64;      ///< admission queue bound
    int idle_timeout_ms = 10'000;      ///< idle/partial-header timeout (408)
    int max_requests_per_conn = 1000;  ///< keep-alive request cap
    HttpLimits http{};
    bool quiet = false;
};

class HttpServer {
public:
    /// Binds and listens immediately (throws RequireError on failure) so
    /// a bad listen address is a startup error, not a runtime surprise.
    HttpServer(ServeService& service, ServerOptions opts);
    ~HttpServer();
    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /// Event loop; blocks until stop() is called, then drains (every
    /// dispatched request is answered, everything else gets 503) and
    /// returns. Call at most once.
    void run();

    /// Requests a graceful shutdown. Async-signal-safe (writes one byte
    /// to an internal pipe); callable from any thread or signal handler.
    void stop() noexcept;

    /// Requests a snapshot-pool hot reload (the SIGHUP path). Async-
    /// signal-safe; the actual reload runs on a worker so the loop never
    /// blocks on disk I/O. In-flight queries finish against the old pool.
    void request_reload() noexcept;

    /// The actually bound port (after an ephemeral bind).
    int port() const noexcept { return port_; }
    int worker_count() const noexcept { return pool_.worker_count(); }

private:
    struct Conn {
        std::uint64_t id = 0;
        int fd = -1;
        HttpRequestParser parser;
        std::string out;            ///< serialized responses pending write
        std::size_t out_off = 0;
        int served = 0;             ///< responses sent on this connection
        bool in_flight = false;     ///< a handler task is running
        bool close_after_write = false;
        bool peer_closed = false;
        bool registered = true;     ///< fd is registered with the poller
        bool want_read = true;      ///< cached poller interest
        bool want_write = false;
        std::chrono::steady_clock::time_point last_activity;

        explicit Conn(HttpLimits limits) : parser(limits) {}
    };

    struct Completion {
        std::uint64_t conn_id = 0;
        HttpResponse response;
        bool client_keep_alive = true;
    };

    void accept_ready();
    void on_readable(Conn& conn);
    void on_writable(Conn& conn);
    void try_dispatch(Conn& conn);
    void enqueue_response(Conn& conn, const HttpResponse& response,
                          bool keep_alive);
    void flush(Conn& conn);
    void update_interest(Conn& conn);
    void close_conn(Conn& conn);
    void drain_wake_pipe();
    void drain_completions();
    /// Per-iteration bookkeeping over every connection: dispatch parsed
    /// requests, apply drain/idle policy, flush, close, refresh poller
    /// interest. Centralizing the close decision here keeps the event
    /// handlers free of iterator-invalidation traps.
    void sweep();
    bool idle_expired(const Conn& conn,
                      std::chrono::steady_clock::time_point now) const;
    int next_timeout_ms(std::chrono::steady_clock::time_point now) const;
    void begin_drain();

    ServeService& service_;
    ServerOptions opts_;
    TaskPool pool_;
    Poller poller_;
    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    int port_ = 0;
    std::atomic<bool> stopping_{false};
    bool draining_ = false;
    std::uint64_t next_conn_id_ = 1;
    std::map<std::uint64_t, Conn> conns_;    ///< id -> connection
    std::map<int, std::uint64_t> fd_to_id_;  ///< socket fd -> id

    std::mutex completions_mutex_;
    std::vector<Completion> completions_;
};

}  // namespace mcs::serve
