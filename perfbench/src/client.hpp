#pragma once

// Blocking HTTP/1.1 client for the closed-loop what-if load: one keep-alive
// connection to the loopback server, one request in flight. When the
// server ends the connection (it closes after its keep-alive request cap,
// announcing it with "Connection: close"), the client reconnects before
// the next request; those reconnects are counted but are not failures.

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class KeepAliveClient {
public:
    explicit KeepAliveClient(int port);
    ~KeepAliveClient();
    KeepAliveClient(const KeepAliveClient&) = delete;
    KeepAliveClient& operator=(const KeepAliveClient&) = delete;

    struct Response {
        int status = 0;
        std::string x_cache;  ///< "hit" / "miss" (X-Cache header)
        bool close = false;   ///< server announced Connection: close
        std::string body;
    };

    /// Sends one request and reads its response. Throws RequireError on a
    /// transport failure or a malformed response. If the server announces
    /// it will close, the next call first opens a fresh connection.
    Response roundtrip(std::string_view wire);

    /// Connections opened after the first one.
    std::uint64_t reconnects() const noexcept { return reconnects_; }

private:
    void connect();
    void disconnect();
    void send_all(std::string_view bytes);
    bool fill();
    Response read_response();

    int port_;
    int fd_ = -1;
    bool reopen_ = false;
    std::uint64_t reconnects_ = 0;
    std::string buffer_;
};

}  // namespace perfbench
