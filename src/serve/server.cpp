#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/require.hpp"

namespace mcs::serve {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) {
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
}

}  // namespace

HttpServer::HttpServer(ServeService& service, ServerOptions opts)
    : service_(service),
      opts_(std::move(opts)),
      pool_(opts_.workers, opts_.queue_limit) {
    MCS_REQUIRE(::pipe(wake_pipe_) == 0, "cannot create wake pipe");
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    MCS_REQUIRE(listen_fd_ >= 0, "cannot create listen socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    set_nonblocking(listen_fd_);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    MCS_REQUIRE(::inet_pton(AF_INET, opts_.listen.c_str(), &addr.sin_addr) ==
                    1,
                "invalid listen address: " + opts_.listen);
    MCS_REQUIRE(::bind(listen_fd_,
                       reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr) == 0,
                "cannot bind " + opts_.listen + ":" +
                    std::to_string(opts_.port) + ": " +
                    std::strerror(errno));
    MCS_REQUIRE(::listen(listen_fd_, 128) == 0, "listen failed");

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    MCS_REQUIRE(::getsockname(listen_fd_,
                              reinterpret_cast<sockaddr*>(&bound),
                              &len) == 0,
                "getsockname failed");
    port_ = static_cast<int>(ntohs(bound.sin_port));
}

HttpServer::~HttpServer() {
    stop();
    for (auto& [id, conn] : conns_) {
        if (conn.fd >= 0) {
            ::close(conn.fd);
        }
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
    }
    for (const int fd : wake_pipe_) {
        if (fd >= 0) {
            ::close(fd);
        }
    }
}

void HttpServer::stop() noexcept {
    if (stopping_.exchange(true)) {
        return;
    }
    const char byte = 's';
    // Best-effort, async-signal-safe wakeup of the event loop.
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void HttpServer::request_reload() noexcept {
    const char byte = 'h';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void HttpServer::run() {
    poller_.add(listen_fd_, true, false);
    poller_.add(wake_pipe_[0], true, false);
    std::vector<Poller::Event> events;
    while (true) {
        if (stopping_.load() && !draining_) {
            begin_drain();
        }
        if (draining_ && conns_.empty()) {
            break;
        }
        const int timeout = next_timeout_ms(Clock::now());
        poller_.wait(events, timeout);
        drain_wake_pipe();
        for (const Poller::Event& ev : events) {
            if (ev.fd == wake_pipe_[0]) {
                continue;
            }
            if (ev.fd == listen_fd_) {
                if (!draining_) {
                    accept_ready();
                }
                continue;
            }
            const auto it = fd_to_id_.find(ev.fd);
            if (it == fd_to_id_.end()) {
                continue;  // closed earlier in this batch
            }
            Conn& conn = conns_.at(it->second);
            if (ev.readable) {
                on_readable(conn);
            } else if (ev.hangup) {
                conn.peer_closed = true;
            }
            if (ev.writable) {
                on_writable(conn);
            }
        }
        drain_completions();
        sweep();
    }
    // Graceful drain epilogue: every connection has been answered and
    // closed; the pool has no queued work left to reject.
    pool_.shutdown();
    if (!opts_.quiet) {
        std::fprintf(stderr,
                     "mcs_serve: drained (%llu served, %llu failed)\n",
                     static_cast<unsigned long long>(
                         pool_.completed_tasks()),
                     static_cast<unsigned long long>(pool_.failed_tasks()));
    }
}

void HttpServer::begin_drain() {
    draining_ = true;
    poller_.del(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
}

void HttpServer::accept_ready() {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            return;  // EAGAIN: accepted everything pending
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        const std::uint64_t id = next_conn_id_++;
        const auto [it, inserted] = conns_.emplace(id, Conn(opts_.http));
        Conn& conn = it->second;
        conn.id = id;
        conn.fd = fd;
        conn.last_activity = Clock::now();
        fd_to_id_[fd] = id;
        poller_.add(fd, true, false);
        conn.want_read = true;
        conn.want_write = false;
    }
}

void HttpServer::on_readable(Conn& conn) {
    char buf[16384];
    // Stop consuming once a full request is buffered and undispatched:
    // level-triggered readiness re-delivers the event, and the kernel
    // socket buffer backpressures an over-eager pipeliner.
    while (conn.parser.state() == HttpRequestParser::State::NeedMore) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn.last_activity = Clock::now();
            conn.parser.feed(
                std::string_view(buf, static_cast<std::size_t>(n)));
            if (static_cast<std::size_t>(n) < sizeof buf) {
                return;
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        conn.peer_closed = true;  // orderly EOF or a hard socket error
        return;
    }
}

void HttpServer::on_writable(Conn& conn) { flush(conn); }

void HttpServer::try_dispatch(Conn& conn) {
    while (!conn.in_flight && !conn.close_after_write) {
        const HttpRequestParser::State state = conn.parser.state();
        if (state == HttpRequestParser::State::NeedMore) {
            return;
        }
        if (state == HttpRequestParser::State::Error) {
            enqueue_response(conn,
                             error_response(conn.parser.error_status(),
                                            conn.parser.error()),
                             false);
            return;
        }
        // Done: hand the request to a worker; the response comes back
        // through the completion queue. Responses stay in request order
        // because at most one request per connection is in flight.
        HttpRequest request = conn.parser.request();
        conn.parser.next_request();
        const bool keep_alive =
            request_keep_alive(request) &&
            conn.served + 1 < opts_.max_requests_per_conn && !draining_;
        const std::uint64_t id = conn.id;
        const bool submitted = pool_.submit(
            [this, id, keep_alive, request = std::move(request)] {
                Completion done;
                done.conn_id = id;
                done.client_keep_alive = keep_alive;
                done.response = service_.handle(request);
                {
                    std::lock_guard<std::mutex> lock(completions_mutex_);
                    completions_.push_back(std::move(done));
                }
                const char byte = 'c';
                [[maybe_unused]] const ssize_t n =
                    ::write(wake_pipe_[1], &byte, 1);
            });
        if (submitted) {
            conn.in_flight = true;
            service_.note_queue_depth(pool_.queue_depth());
            return;
        }
        // Bounded admission: a full queue sheds this request immediately
        // with 429 -- on the still-open connection, so the client can
        // retry over the same socket after Retry-After.
        service_.note_rejected();
        HttpResponse overload =
            error_response(429, "admission queue full, retry shortly");
        overload.extra_headers.emplace_back("Retry-After", "1");
        enqueue_response(conn, overload, keep_alive);
    }
}

void HttpServer::enqueue_response(Conn& conn, const HttpResponse& response,
                                  bool keep_alive) {
    const bool keep = keep_alive && !conn.close_after_write;
    conn.out += serialize_response(response, keep);
    service_.note_response(response.status);
    ++conn.served;
    conn.last_activity = Clock::now();
    if (!keep) {
        conn.close_after_write = true;
    }
}

void HttpServer::flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.out_off,
                   conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            conn.last_activity = Clock::now();
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        conn.peer_closed = true;
        return;
    }
    if (conn.out_off != 0) {
        conn.out.clear();
        conn.out_off = 0;
    }
}

void HttpServer::update_interest(Conn& conn) {
    if (!conn.registered) {
        return;
    }
    if (conn.peer_closed) {
        // Nothing more to exchange; deregister so a level-triggered HUP
        // does not spin the loop while a handler is still in flight.
        poller_.del(conn.fd);
        conn.registered = false;
        return;
    }
    const bool want_read =
        conn.parser.state() == HttpRequestParser::State::NeedMore &&
        !conn.close_after_write;
    const bool want_write = conn.out_off < conn.out.size();
    if (want_read != conn.want_read || want_write != conn.want_write) {
        poller_.mod(conn.fd, want_read, want_write);
        conn.want_read = want_read;
        conn.want_write = want_write;
    }
}

void HttpServer::close_conn(Conn& conn) {
    if (conn.registered) {
        poller_.del(conn.fd);
    }
    fd_to_id_.erase(conn.fd);
    ::close(conn.fd);
    conns_.erase(conn.id);  // invalidates `conn`
}

void HttpServer::drain_wake_pipe() {
    char bytes[64];
    bool reload = false;
    for (;;) {
        const ssize_t n = ::read(wake_pipe_[0], bytes, sizeof bytes);
        if (n <= 0) {
            break;
        }
        for (ssize_t i = 0; i < n; ++i) {
            if (bytes[i] == 'h') {
                reload = true;
            }
        }
    }
    if (reload && !draining_) {
        // Reload reads snapshot files and re-derives fingerprints; run it
        // on a worker so the loop keeps serving. RCU swap in the service
        // means in-flight queries finish against the old pool.
        const bool submitted = pool_.submit([this] {
            try {
                service_.reload();
                if (!opts_.quiet) {
                    std::fprintf(stderr,
                                 "mcs_serve: snapshot pool reloaded\n");
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "mcs_serve: reload failed: %s\n",
                             e.what());
            }
        });
        if (!submitted) {
            try {
                service_.reload();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "mcs_serve: reload failed: %s\n",
                             e.what());
            }
        }
    }
}

void HttpServer::drain_completions() {
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        batch.swap(completions_);
    }
    for (Completion& done : batch) {
        const auto it = conns_.find(done.conn_id);
        if (it == conns_.end()) {
            continue;  // connection died while the handler ran
        }
        Conn& conn = it->second;
        conn.in_flight = false;
        enqueue_response(conn, done.response,
                         done.client_keep_alive && !draining_);
    }
}

void HttpServer::sweep() {
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> dead;
    for (auto& [id, conn] : conns_) {
        if (!conn.in_flight && !conn.close_after_write &&
            !conn.peer_closed) {
            if (draining_) {
                // The drain contract: dispatched requests finish; every
                // other connection -- idle keep-alive, accepted-but-
                // unparsed, half-read -- is told to go away cleanly.
                enqueue_response(
                    conn, error_response(503, "server is draining"),
                    false);
            } else if (conn.parser.state() !=
                       HttpRequestParser::State::NeedMore) {
                try_dispatch(conn);
            } else if (idle_expired(conn, now)) {
                enqueue_response(
                    conn,
                    error_response(408, "connection idle past " +
                                            std::to_string(
                                                opts_.idle_timeout_ms) +
                                            " ms"),
                    false);
            }
        }
        flush(conn);
        const bool flushed = conn.out_off >= conn.out.size();
        if (!conn.in_flight &&
            (conn.peer_closed || (conn.close_after_write && flushed))) {
            dead.push_back(id);
            continue;
        }
        update_interest(conn);
    }
    for (const std::uint64_t id : dead) {
        close_conn(conns_.at(id));
    }
}

bool HttpServer::idle_expired(const Conn& conn,
                              Clock::time_point now) const {
    if (opts_.idle_timeout_ms <= 0) {
        return false;
    }
    return now - conn.last_activity >=
           std::chrono::milliseconds(opts_.idle_timeout_ms);
}

int HttpServer::next_timeout_ms(Clock::time_point now) const {
    if (draining_) {
        return 100;  // re-check drain progress promptly
    }
    if (opts_.idle_timeout_ms <= 0) {
        return -1;
    }
    bool any = false;
    Clock::time_point earliest{};
    for (const auto& [id, conn] : conns_) {
        if (conn.in_flight || conn.close_after_write) {
            continue;
        }
        const Clock::time_point deadline =
            conn.last_activity +
            std::chrono::milliseconds(opts_.idle_timeout_ms);
        if (!any || deadline < earliest) {
            earliest = deadline;
            any = true;
        }
    }
    if (!any) {
        return -1;
    }
    const auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(
                           earliest - now)
                           .count();
    return delta <= 0 ? 0 : static_cast<int>(delta) + 1;
}

}  // namespace mcs::serve
