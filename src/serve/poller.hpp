#pragma once

// Readiness multiplexer behind the serve event loop: a thin wrapper over
// level-triggered epoll (Linux). Level-triggered semantics are
// deliberate: the loop may consume only part of a readable buffer (e.g.
// one pipelined request) and relies on being woken again.

#include <cstddef>
#include <vector>

namespace mcs::serve {

class Poller {
public:
    struct Event {
        int fd = -1;
        bool readable = false;
        bool writable = false;
        bool hangup = false;  ///< error or peer hangup (EPOLLERR/HUP)
    };

    Poller();
    ~Poller();
    Poller(const Poller&) = delete;
    Poller& operator=(const Poller&) = delete;

    /// Registers `fd`; `fd` must not already be registered.
    void add(int fd, bool want_read, bool want_write);
    /// Changes the interest set of a registered `fd`.
    void mod(int fd, bool want_read, bool want_write);
    /// Unregisters `fd` (call before closing it).
    void del(int fd);

    /// Blocks up to `timeout_ms` (< 0 = indefinitely) and appends ready
    /// events to `out` (cleared first). Returns the number of events; 0 on
    /// timeout. EINTR is reported as 0 events, not an error.
    std::size_t wait(std::vector<Event>& out, int timeout_ms);

private:
    int epoll_fd_ = -1;
};

}  // namespace mcs::serve
