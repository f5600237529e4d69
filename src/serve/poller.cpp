#include "serve/poller.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>

#include "util/require.hpp"

namespace mcs::serve {

namespace {

std::uint32_t epoll_mask(bool want_read, bool want_write) {
    std::uint32_t events = 0;
    if (want_read) {
        events |= EPOLLIN;
    }
    if (want_write) {
        events |= EPOLLOUT;
    }
    return events;
}

}  // namespace

Poller::Poller() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    MCS_REQUIRE(epoll_fd_ >= 0, "epoll_create1 failed");
}

Poller::~Poller() {
    if (epoll_fd_ >= 0) {
        ::close(epoll_fd_);
    }
}

void Poller::add(int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = epoll_mask(want_read, want_write);
    ev.data.fd = fd;
    MCS_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                "epoll_ctl(ADD) failed");
}

void Poller::mod(int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = epoll_mask(want_read, want_write);
    ev.data.fd = fd;
    MCS_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0,
                "epoll_ctl(MOD) failed");
}

void Poller::del(int fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

std::size_t Poller::wait(std::vector<Event>& out, int timeout_ms) {
    out.clear();
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
        MCS_REQUIRE(errno == EINTR, "epoll_wait failed");
        return 0;
    }
    for (int i = 0; i < n; ++i) {
        Event e;
        e.fd = events[i].data.fd;
        e.readable = (events[i].events & EPOLLIN) != 0;
        e.writable = (events[i].events & EPOLLOUT) != 0;
        e.hangup = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
        out.push_back(e);
    }
    return out.size();
}

}  // namespace mcs::serve
