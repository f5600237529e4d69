// M1-M3 -- google-benchmark microbenchmarks of the simulator substrates:
// event-queue throughput, NoC routing, power-model evaluation, thermal
// stepping, and mapper decisions. These bound the cost of one simulated
// second and guard against performance regressions in the hot paths.

#include <benchmark/benchmark.h>

#include "arch/chip.hpp"
#include "mapping/contiguous_mapper.hpp"
#include "noc/network.hpp"
#include "power/power_model.hpp"
#include "sim/event_queue.hpp"
#include "thermal/thermal_model.hpp"
#include "util/rng.hpp"

namespace {

using namespace mcs;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    EventQueue q;
    Rng rng(1);
    for (auto _ : state) {
        for (std::size_t i = 0; i < batch; ++i) {
            q.schedule(rng.next_u64() % 1'000'000, [] {});
        }
        while (!q.empty()) {
            benchmark::DoNotOptimize(q.pop());
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
    EventQueue q;
    Rng rng(2);
    for (auto _ : state) {
        std::vector<EventId> ids;
        ids.reserve(1024);
        for (int i = 0; i < 1024; ++i) {
            ids.push_back(q.schedule(rng.next_u64() % 1'000'000, [] {}));
        }
        for (std::size_t i = 0; i < ids.size(); i += 2) {
            q.cancel(ids[i]);
        }
        while (!q.empty()) {
            benchmark::DoNotOptimize(q.pop());
        }
    }
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_EventQueueEpochMix(benchmark::State& state) {
    // The simulator's real access pattern: timestamps quantized to epoch
    // boundaries (so many events tie and pop in FIFO seq order), a steady
    // schedule/cancel churn from retimed completions, and a drain of
    // everything due each tick. Cancelled keys stay in the heap until
    // they surface, so this mix also prices the lazy drop.
    constexpr SimTime kEpoch = 10'000;
    EventQueue q;
    Rng rng(6);
    std::vector<EventId> live;
    for (auto _ : state) {
        SimTime now = 0;
        for (int round = 0; round < 256; ++round) {
            for (int i = 0; i < 16; ++i) {
                live.push_back(
                    q.schedule(now + kEpoch * (1 + rng.index(64)), [] {}));
            }
            for (int i = 0; i < 4 && !live.empty(); ++i) {
                const std::size_t j = rng.index(live.size());
                q.cancel(live[j]);  // no-op if already popped
                live[j] = live.back();
                live.pop_back();
            }
            now += kEpoch;
            while (!q.empty() && q.next_time() <= now) {
                benchmark::DoNotOptimize(q.pop());
            }
        }
        while (!q.empty()) {
            benchmark::DoNotOptimize(q.pop());
        }
        live.clear();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            256 * 16);
}
BENCHMARK(BM_EventQueueEpochMix);

void BM_EpochPowerFill(benchmark::State& state) {
    // PlatformEngine's per-epoch power fill: each core's draw from its
    // state, V/F level and node temperature, in core order.
    const int side = static_cast<int>(state.range(0));
    Chip chip(side, side, TechNode::nm16);
    PowerModel model(chip.tech(), chip.vf_table());
    const std::vector<double> temps(chip.core_count(), 55.0);
    std::vector<double> out(chip.core_count(), 0.0);
    for (Core& c : chip.cores()) {
        c.set_vf_level(0, static_cast<int>(c.id() % 3));
        if (c.id() % 3 == 0) {
            c.start_task(0);
        } else if (c.id() % 3 == 1) {
            c.power_gate(0);
        }
    }
    for (auto _ : state) {
        for (const Core& c : chip.cores()) {
            out[c.id()] =
                model.core_power_w(c.state(), c.vf_level(), temps[c.id()]);
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(chip.core_count()));
}
BENCHMARK(BM_EpochPowerFill)->Arg(16)->Arg(64);

void BM_NocXyRoute(benchmark::State& state) {
    const int side = static_cast<int>(state.range(0));
    MeshTopology topo(side, side);
    Rng rng(3);
    for (auto _ : state) {
        const auto src = static_cast<CoreId>(rng.index(topo.node_count()));
        const auto dst = static_cast<CoreId>(rng.index(topo.node_count()));
        benchmark::DoNotOptimize(topo.xy_route(src, dst));
    }
}
BENCHMARK(BM_NocXyRoute)->Arg(8)->Arg(16)->Arg(32);

void BM_NocSend(benchmark::State& state) {
    Network net(16, 16);
    Rng rng(4);
    for (auto _ : state) {
        const auto src = static_cast<CoreId>(rng.index(256));
        const auto dst = static_cast<CoreId>(rng.index(256));
        benchmark::DoNotOptimize(net.send(src, dst, 4096));
    }
}
BENCHMARK(BM_NocSend);

void BM_ChipPowerEvaluation(benchmark::State& state) {
    const int side = static_cast<int>(state.range(0));
    Chip chip(side, side, TechNode::nm16);
    PowerModel model(chip.tech(), chip.vf_table());
    std::vector<double> temps(chip.core_count(), 55.0);
    // Mixed states for a realistic evaluation.
    for (CoreId id = 0; id < chip.core_count(); ++id) {
        if (id % 3 == 0) {
            chip.core(id).start_task(0);
        } else if (id % 3 == 1) {
            chip.core(id).power_gate(0);
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.chip_power_w(chip, temps));
    }
}
BENCHMARK(BM_ChipPowerEvaluation)->Arg(8)->Arg(16);

void BM_ThermalStep(benchmark::State& state) {
    const int side = static_cast<int>(state.range(0));
    ThermalModel thermal(side, side);
    std::vector<double> power(
        static_cast<std::size_t>(side) * static_cast<std::size_t>(side), 0.8);
    for (auto _ : state) {
        thermal.step(power, 0.5e-3);
    }
    benchmark::DoNotOptimize(thermal.max_temp_c());
}
BENCHMARK(BM_ThermalStep)->Arg(8)->Arg(16);

void BM_ContiguousMapping(benchmark::State& state) {
    const int side = static_cast<int>(state.range(0));
    const auto request = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(side * side);
    std::vector<std::uint8_t> alloc(n, 1);
    std::vector<std::uint8_t> testing(n, 0);
    std::vector<double> util(n, 0.3);
    std::vector<double> crit(n, 0.5);
    std::vector<double> temps(n, 45.0);
    Rng rng(5);
    for (std::size_t i = 0; i < n; ++i) {
        alloc[i] = rng.bernoulli(0.5) ? 1 : 0;
        testing[i] = rng.bernoulli(0.1) ? 1 : 0;
        temps[i] = rng.uniform(40.0, 90.0);
    }
    PlatformView view;
    view.width = side;
    view.height = side;
    view.allocatable = alloc;
    view.utilization = util;
    view.criticality = crit;
    view.testing = testing;
    view.temperature_c = temps;
    auto mapper = ContiguousMapper::test_aware();
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.map({1, request}, view, rng));
    }
}
// Chip side x request size; 32x32 is where the mapper's cost grows.
BENCHMARK(BM_ContiguousMapping)->ArgsProduct({{8, 16, 32}, {4, 9, 16}});

}  // namespace

BENCHMARK_MAIN();
