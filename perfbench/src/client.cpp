#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/require.hpp"

namespace perfbench {

namespace {

std::string lower(std::string_view s) {
    std::string out(s);
    for (char& c : out) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

}  // namespace

KeepAliveClient::KeepAliveClient(int port) : port_(port) { connect(); }

KeepAliveClient::~KeepAliveClient() { disconnect(); }

void KeepAliveClient::connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    MCS_REQUIRE(fd_ >= 0, "client socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
        disconnect();
        MCS_REQUIRE(false, "client connect failed");
    }
}

void KeepAliveClient::disconnect() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void KeepAliveClient::send_all(std::string_view bytes) {
    while (!bytes.empty()) {
        const ssize_t n =
            ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        MCS_REQUIRE(n > 0, "client send failed");
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
}

bool KeepAliveClient::fill() {
    char buf[16384];
    ssize_t n = 0;
    do {
        n = ::recv(fd_, buf, sizeof buf, 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
        return false;
    }
    buffer_.append(buf, static_cast<std::size_t>(n));
    return true;
}

KeepAliveClient::Response KeepAliveClient::roundtrip(std::string_view wire) {
    if (reopen_) {
        disconnect();
        buffer_.clear();
        connect();
        ++reconnects_;
        reopen_ = false;
    }
    send_all(wire);
    Response resp = read_response();
    reopen_ = resp.close;
    return resp;
}

KeepAliveClient::Response KeepAliveClient::read_response() {
    std::size_t head_end = 0;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
        MCS_REQUIRE(fill(), "connection closed before a response head");
    }
    const std::string_view head(buffer_.data(), head_end);
    MCS_REQUIRE(head.substr(0, 9) == "HTTP/1.1 ", "malformed status line");
    Response resp;
    resp.status = std::atoi(buffer_.c_str() + 9);
    std::size_t body_len = 0;
    bool have_length = false;
    std::size_t pos = head.find("\r\n");
    while (pos != std::string_view::npos && pos < head.size()) {
        const std::size_t start = pos + 2;
        std::size_t eol = head.find("\r\n", start);
        if (eol == std::string_view::npos) {
            eol = head.size();
        }
        const std::string_view line = head.substr(start, eol - start);
        const std::size_t colon = line.find(':');
        if (colon != std::string_view::npos) {
            const std::string name = lower(line.substr(0, colon));
            std::string_view value = line.substr(colon + 1);
            while (!value.empty() && value.front() == ' ') {
                value.remove_prefix(1);
            }
            if (name == "content-length") {
                body_len = std::strtoull(std::string(value).c_str(),
                                         nullptr, 10);
                have_length = true;
            } else if (name == "connection") {
                resp.close = lower(value) == "close";
            } else if (name == "x-cache") {
                resp.x_cache = std::string(value);
            }
        }
        pos = eol;
    }
    MCS_REQUIRE(have_length, "response without Content-Length");
    const std::size_t total = head_end + 4 + body_len;
    while (buffer_.size() < total) {
        MCS_REQUIRE(fill(), "connection closed inside a response body");
    }
    resp.body = buffer_.substr(head_end + 4, body_len);
    buffer_.erase(0, total);
    return resp;
}

}  // namespace perfbench
