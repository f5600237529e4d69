#include "app/task_graph.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace mcs {
namespace {

TaskGraph diamond() {
    //   0
    //  / \   0 feeds 1 and 2,
    // 1   2
    //  \ /   which both feed 3.
    //   3
    std::vector<Task> tasks(4);
    tasks[0].cycles = 100;
    tasks[0].successors = {{1, 10}, {2, 20}};
    tasks[1].cycles = 200;
    tasks[1].successors = {{3, 30}};
    tasks[2].cycles = 50;
    tasks[2].successors = {{3, 40}};
    tasks[3].cycles = 300;
    return TaskGraph(std::move(tasks));
}

TEST(TaskGraph, DiamondInvariants) {
    const TaskGraph g = diamond();
    EXPECT_EQ(g.size(), 4u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(g.total_cycles(), 650u);
    EXPECT_EQ(g.total_comm_bytes(), 100u);
    EXPECT_EQ(g.pred_count(0), 0u);
    EXPECT_EQ(g.pred_count(1), 1u);
    EXPECT_EQ(g.pred_count(3), 2u);
    ASSERT_EQ(g.sources().size(), 1u);
    EXPECT_EQ(g.sources()[0], 0u);
}

TEST(TaskGraph, CriticalPath) {
    const TaskGraph g = diamond();
    // 0 -> 1 -> 3 = 100 + 200 + 300 = 600
    EXPECT_EQ(g.critical_path_cycles(), 600u);
}

TEST(TaskGraph, SingleTask) {
    std::vector<Task> tasks(1);
    tasks[0].cycles = 42;
    const TaskGraph g(std::move(tasks));
    EXPECT_EQ(g.size(), 1u);
    EXPECT_EQ(g.critical_path_cycles(), 42u);
    EXPECT_EQ(g.sources().size(), 1u);
}

TEST(TaskGraph, IndependentTasksAllSources) {
    std::vector<Task> tasks(3);
    for (auto& t : tasks) {
        t.cycles = 10;
    }
    const TaskGraph g(std::move(tasks));
    EXPECT_EQ(g.sources().size(), 3u);
    EXPECT_EQ(g.critical_path_cycles(), 10u);
}

TEST(TaskGraph, ChainCriticalPathIsSum) {
    std::vector<Task> tasks(5);
    for (std::size_t i = 0; i < 5; ++i) {
        tasks[i].cycles = 10 * (i + 1);
        if (i + 1 < 5) {
            tasks[i].successors = {{static_cast<TaskIndex>(i + 1), 1}};
        }
    }
    const TaskGraph g(std::move(tasks));
    EXPECT_EQ(g.critical_path_cycles(), 150u);
}

TEST(TaskGraph, RejectsEmpty) {
    EXPECT_THROW(TaskGraph({}), RequireError);
}

TEST(TaskGraph, RejectsDanglingEdge) {
    std::vector<Task> tasks(2);
    tasks[0].cycles = 1;
    tasks[0].successors = {{5, 10}};  // no task 5
    tasks[1].cycles = 1;
    EXPECT_THROW(TaskGraph(std::move(tasks)), RequireError);
}

TEST(TaskGraph, RejectsCycle) {
    std::vector<Task> tasks(3);
    tasks[0].cycles = 1;
    tasks[0].successors = {{1, 1}};
    tasks[1].cycles = 1;
    tasks[1].successors = {{2, 1}};
    tasks[2].cycles = 1;
    tasks[2].successors = {{1, 1}};  // 1 -> 2 -> 1
    EXPECT_THROW(TaskGraph(std::move(tasks)), RequireError);
}

TEST(TaskGraph, RejectsSelfLoopViaNoSource) {
    std::vector<Task> tasks(1);
    tasks[0].cycles = 1;
    tasks[0].successors = {{0, 1}};
    EXPECT_THROW(TaskGraph(std::move(tasks)), RequireError);
}

TEST(TaskGraph, TaskAccessorBoundsChecked) {
    const TaskGraph g = diamond();
    EXPECT_THROW(g.task(4), RequireError);
    EXPECT_THROW(g.pred_count(4), RequireError);
}

}  // namespace
}  // namespace mcs
