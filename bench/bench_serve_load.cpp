// bench_serve_load -- socket-level load profile of the mcs_serve event
// loop.
//
// Where bench_serve measures the query surface in process, this binary
// stands up the real front end -- nonblocking sockets, the epoll loop,
// keep-alive, bounded admission -- and drives it with N concurrent client
// threads over persistent connections, stepping N up level by level to
// find the saturation knee. Each client replays a fixed panel of what-if
// queries (warmed first, so the steady state measures the serving path,
// not the simulator) and byte-compares every 200 against the warm-up
// answer: the byte-identity contract must survive concurrency.
//
//   metrics  -- deterministic counts (levels, per-level request quota,
//               successful responses, byte mismatches, transport errors),
//               gated by tools/check_bench.py
//   load     -- throughput per level, saturation knee, p50/p99 latency,
//               429-shed counts -- wall-clock-derived, never gated
//
// 429 responses are not failures: the client retries the same request on
// the same connection until it succeeds, so the success counts stay
// deterministic while shedding shows up only in the auxiliary section.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/system_factory.hpp"
#include "scenario/scenario_runner.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/snapshot_pool.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/config.hpp"
#include "util/require.hpp"

namespace {

using mcs::bench::BenchOptions;
using mcs::bench::BenchReport;

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// Blocking HTTP/1.1 client: one keep-alive connection, send a request,
/// read one framed response. Throws RequireError on transport failure.
class LoadClient {
public:
    explicit LoadClient(int port) : port_(port) { connect(); }
    ~LoadClient() { disconnect(); }

    void reconnect() {
        disconnect();
        buffer_.clear();
        connect();
    }

    struct Response {
        int status = 0;
        std::string body;
    };

    Response roundtrip(const std::string& wire) {
        send_all(wire);
        return read_response();
    }

private:
    void connect() {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        MCS_REQUIRE(fd_ >= 0, "client socket failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port_));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        MCS_REQUIRE(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                              sizeof addr) == 0,
                    "client connect failed");
    }

    void disconnect() {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    void send_all(std::string_view bytes) {
        while (!bytes.empty()) {
            const ssize_t n =
                ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
            MCS_REQUIRE(n > 0, "client send failed");
            bytes.remove_prefix(static_cast<std::size_t>(n));
        }
    }

    bool fill() {
        char buf[16384];
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n <= 0) return false;
        buffer_.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    Response read_response() {
        std::size_t head_end;
        while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
            MCS_REQUIRE(fill(), "EOF before response head");
        }
        Response resp;
        resp.status = std::atoi(buffer_.c_str() + 9);
        std::size_t body_len = 0;
        const std::string head = buffer_.substr(0, head_end);
        // Lower-case search is unnecessary: the server emits exactly
        // "Content-Length".
        const std::size_t cl = head.find("Content-Length: ");
        if (cl != std::string::npos) {
            body_len = static_cast<std::size_t>(
                std::atol(head.c_str() + cl + 16));
        }
        while (buffer_.size() < head_end + 4 + body_len) {
            MCS_REQUIRE(fill(), "EOF before response body");
        }
        resp.body = buffer_.substr(head_end + 4, body_len);
        buffer_.erase(0, head_end + 4 + body_len);
        return resp;
    }

    int port_;
    int fd_ = -1;
    std::string buffer_;
};

std::string whatif_wire(const std::string& body) {
    return "POST /whatif HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string query_body(const char* scheduler, double tdp_scale) {
    return std::string("{\"schema\":\"mcs.whatif_query.v1\","
                       "\"snapshot\":\"warm\",\"overrides\":{"
                       "\"scheduler\":\"") +
           scheduler + "\",\"tdp_scale\":" +
           mcs::telemetry::json_number(tdp_scale) + "}}";
}

struct LevelResult {
    int clients = 0;
    double elapsed_s = 0.0;
    double throughput_rps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    std::uint64_t ok = 0;
    std::uint64_t shed_429 = 0;
};

}  // namespace

int main(int argc, char** argv) {
    const BenchOptions opt = mcs::bench::parse_options(argc, argv);
    mcs::bench::print_header(
        "serve-load: concurrent socket clients vs the event loop",
        "throughput scales to a saturation knee while every response "
        "stays byte-identical to the single-client answer");
    BenchReport report("serve_load", opt);

    // Warm one snapshot (small chip: the load bench stresses the serving
    // path, cache hits and framing, not the simulator).
    mcs::Config base;
    base.set("side", "4");
    base.set("seed", "42");
    base.set("min_tasks", "2");
    base.set("max_tasks", "6");
    base.set("occupancy", "0.5");
    const mcs::SimDuration horizon = mcs::bench::horizon(opt, 2.0, 1.0);
    const std::string snap_path =
        mcs::bench::out_path(opt, "serve_load_snapshot.json");
    {
        const auto sys = mcs::make_system(base);
        sys->checkpoint_at(horizon * 2 / 5, snap_path);
        sys->run(horizon);
    }

    mcs::telemetry::MetricsRegistry registry;
    mcs::serve::ServeService service(
        mcs::serve::SnapshotPool::from_document(
            "warm", mcs::load_snapshot_file(snap_path), base),
        mcs::serve::ServiceOptions{}, registry);
    mcs::serve::ServerOptions server_opts;
    server_opts.port = 0;  // ephemeral
    server_opts.workers = opt.jobs;
    server_opts.quiet = true;
    mcs::serve::HttpServer server(service, server_opts);
    std::thread server_thread([&server] { server.run(); });

    // The query panel (distinct canonical keys) and its reference
    // answers, computed once over a single connection before any load.
    std::vector<std::string> wires;
    std::vector<std::string> expected;
    for (const char* sched : {"power-aware", "greedy"}) {
        for (double tdp : {0.7, 0.85, 1.0}) {
            wires.push_back(whatif_wire(query_body(sched, tdp)));
        }
    }
    {
        LoadClient warm(server.port());
        for (const std::string& wire : wires) {
            LoadClient::Response resp = warm.roundtrip(wire);
            MCS_REQUIRE(resp.status == 200,
                        "warm-up query failed: " + resp.body);
            expected.push_back(std::move(resp.body));
        }
    }

    const std::vector<int> levels =
        opt.quick ? std::vector<int>{1, 2, 4}
                  : std::vector<int>{1, 2, 4, 8, 16};
    const int per_client = opt.quick ? 40 : 150;

    std::vector<LevelResult> results;
    std::atomic<std::uint64_t> byte_mismatches{0};
    std::atomic<std::uint64_t> transport_errors{0};
    using clock = std::chrono::steady_clock;

    for (const int clients : levels) {
        std::atomic<std::uint64_t> ok{0};
        std::atomic<std::uint64_t> shed{0};
        std::mutex samples_mutex;
        std::vector<double> samples;
        const auto level_start = clock::now();
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(clients));
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                std::vector<double> local;
                local.reserve(static_cast<std::size_t>(per_client));
                std::unique_ptr<LoadClient> client;
                try {
                    client = std::make_unique<LoadClient>(server.port());
                } catch (const std::exception&) {
                    transport_errors.fetch_add(
                        static_cast<std::uint64_t>(per_client));
                    return;
                }
                for (int i = 0; i < per_client; ++i) {
                    const std::size_t q =
                        static_cast<std::size_t>(c + i) % wires.size();
                    for (;;) {
                        const auto t0 = clock::now();
                        LoadClient::Response resp;
                        try {
                            resp = client->roundtrip(wires[q]);
                        } catch (const std::exception&) {
                            // Transport failure: reconnect and retry this
                            // request; counted, and gated at zero.
                            transport_errors.fetch_add(1);
                            try {
                                client->reconnect();
                                continue;
                            } catch (const std::exception&) {
                                return;  // server gone; errors recorded
                            }
                        }
                        if (resp.status == 429) {
                            shed.fetch_add(1);
                            continue;  // bounded admission said later
                        }
                        local.push_back(std::chrono::duration<
                                            double, std::micro>(
                                            clock::now() - t0)
                                            .count());
                        if (resp.status == 200) {
                            ok.fetch_add(1);
                            if (resp.body != expected[q]) {
                                byte_mismatches.fetch_add(1);
                            }
                        }
                        break;
                    }
                }
                std::lock_guard<std::mutex> lock(samples_mutex);
                samples.insert(samples.end(), local.begin(), local.end());
            });
        }
        for (std::thread& t : threads) {
            t.join();
        }
        LevelResult lr;
        lr.clients = clients;
        lr.elapsed_s =
            std::chrono::duration<double>(clock::now() - level_start)
                .count();
        lr.ok = ok.load();
        lr.shed_429 = shed.load();
        lr.throughput_rps =
            lr.elapsed_s > 0.0
                ? static_cast<double>(lr.ok) / lr.elapsed_s
                : 0.0;
        lr.p50_us = percentile(samples, 0.5);
        lr.p99_us = percentile(samples, 0.99);
        results.push_back(lr);
    }

    server.stop();
    server_thread.join();

    // The saturation knee: the last level that still bought a >10%
    // throughput improvement over its predecessor.
    int knee_clients = results.empty() ? 0 : results.front().clients;
    for (std::size_t i = 1; i < results.size(); ++i) {
        if (results[i].throughput_rps >
            results[i - 1].throughput_rps * 1.10) {
            knee_clients = results[i].clients;
        }
    }

    mcs::TablePrinter table({"clients", "ok", "429_shed", "rps", "p50_us",
                             "p99_us"});
    for (const LevelResult& lr : results) {
        table.add_row({mcs::fmt(std::int64_t(lr.clients)),
                       mcs::fmt(std::int64_t(lr.ok)),
                       mcs::fmt(std::int64_t(lr.shed_429)),
                       mcs::fmt(lr.throughput_rps),
                       mcs::fmt(lr.p50_us), mcs::fmt(lr.p99_us)});
    }
    std::fputs(table.to_string().c_str(), stdout);
    std::printf("\nsaturation knee: %d client(s)   byte mismatches: %llu   "
                "transport errors: %llu\n",
                knee_clients,
                static_cast<unsigned long long>(byte_mismatches.load()),
                static_cast<unsigned long long>(transport_errors.load()));

    std::uint64_t responses_ok = 0;
    for (const LevelResult& lr : results) {
        responses_ok += lr.ok;
    }
    std::uint64_t quota = 0;
    for (const int clients : levels) {
        quota += static_cast<std::uint64_t>(clients) *
                 static_cast<std::uint64_t>(per_client);
    }

    // Deterministic counts -> gated; throughput/latency/shed -> aux.
    report.metric("levels", static_cast<double>(levels.size()));
    report.metric("panel_queries", static_cast<double>(wires.size()));
    report.metric("request_quota", static_cast<double>(quota));
    report.metric("responses_ok", static_cast<double>(responses_ok));
    report.metric("byte_mismatches",
                  static_cast<double>(byte_mismatches.load()));
    report.metric("transport_errors",
                  static_cast<double>(transport_errors.load()));
    report.aux("load", "knee_clients", static_cast<double>(knee_clients));
    for (const LevelResult& lr : results) {
        const std::string suffix = "_c" + std::to_string(lr.clients);
        report.aux("load", "throughput_rps" + suffix, lr.throughput_rps);
        report.aux("load", "p50_us" + suffix, lr.p50_us);
        report.aux("load", "p99_us" + suffix, lr.p99_us);
        report.aux("load", "shed_429" + suffix,
                   static_cast<double>(lr.shed_429));
    }
    report.write();

    if (byte_mismatches.load() != 0 || transport_errors.load() != 0 ||
        responses_ok != quota) {
        std::fprintf(stderr,
                     "bench_serve_load: FAILED (ok %llu of %llu, "
                     "mismatches %llu, transport errors %llu)\n",
                     static_cast<unsigned long long>(responses_ok),
                     static_cast<unsigned long long>(quota),
                     static_cast<unsigned long long>(byte_mismatches.load()),
                     static_cast<unsigned long long>(transport_errors.load()));
        return 1;
    }
    return 0;
}
