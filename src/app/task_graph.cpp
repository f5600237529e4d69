#include "app/task_graph.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace mcs {

TaskGraph::TaskGraph(std::vector<Task> tasks) : tasks_(std::move(tasks)) {
    MCS_REQUIRE(!tasks_.empty(), "task graph must be non-empty");
    const std::size_t n = tasks_.size();
    pred_counts_.assign(n, 0);
    for (const Task& t : tasks_) {
        total_cycles_ += t.cycles;
        for (const TaskEdge& e : t.successors) {
            MCS_REQUIRE(e.dst < n, "task edge target out of range");
            ++pred_counts_[e.dst];
            total_bytes_ += e.bytes;
            ++edge_count_;
        }
    }
    sources_.reserve(static_cast<std::size_t>(
        std::count(pred_counts_.begin(), pred_counts_.end(), 0u)));
    for (TaskIndex i = 0; i < n; ++i) {
        if (pred_counts_[i] == 0) {
            sources_.push_back(i);
        }
    }
    MCS_REQUIRE(!sources_.empty(), "task graph has no source (cyclic)");

    // Kahn's algorithm: verifies acyclicity and computes the critical path.
    // `order` is the FIFO: tasks enter it once their inputs are all
    // visited, and `head` walks it.
    std::vector<std::uint32_t> remaining = pred_counts_;
    std::vector<std::uint64_t> finish_cycles(n, 0);
    std::vector<TaskIndex> order;
    order.reserve(n);
    for (TaskIndex s : sources_) {
        order.push_back(s);
        finish_cycles[s] = tasks_[s].cycles;
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
        const TaskIndex u = order[head];
        for (const TaskEdge& e : tasks_[u].successors) {
            finish_cycles[e.dst] =
                std::max(finish_cycles[e.dst],
                         finish_cycles[u] + tasks_[e.dst].cycles);
            if (--remaining[e.dst] == 0) {
                order.push_back(e.dst);
            }
        }
    }
    MCS_REQUIRE(order.size() == n, "task graph contains a cycle");
    critical_path_cycles_ =
        *std::max_element(finish_cycles.begin(), finish_cycles.end());
}

const Task& TaskGraph::task(TaskIndex i) const {
    MCS_REQUIRE(i < tasks_.size(), "task index out of range");
    return tasks_[i];
}

std::uint32_t TaskGraph::pred_count(TaskIndex i) const {
    MCS_REQUIRE(i < pred_counts_.size(), "task index out of range");
    return pred_counts_[i];
}

}  // namespace mcs
