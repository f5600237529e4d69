#include "probes.hpp"

#include "core/schedulers.hpp"
#include "mapping/contiguous_mapper.hpp"
#include "mapping/reliability_mapper.hpp"
#include "util/require.hpp"

namespace perfbench {

std::unique_ptr<mcs::Mapper> make_configured_mapper(
    const mcs::SystemConfig& cfg) {
    using mcs::ContiguousMapper;
    using mcs::MapperKind;
    switch (cfg.mapper) {
        case MapperKind::TestAware:
            return std::make_unique<ContiguousMapper>(
                ContiguousMapper::test_aware());
        case MapperKind::ThermalAware:
            return std::make_unique<ContiguousMapper>(
                ContiguousMapper::thermal_aware());
        case MapperKind::UtilizationOriented:
            return std::make_unique<ContiguousMapper>(
                ContiguousMapper::utilization_oriented());
        case MapperKind::Contiguous:
            return std::make_unique<ContiguousMapper>(
                ContiguousMapper::plain());
        case MapperKind::Random:
            return std::make_unique<mcs::RandomMapper>();
        case MapperKind::FirstFit:
            return std::make_unique<mcs::FirstFitMapper>();
        case MapperKind::ReliabilityWeighted:
            return std::make_unique<mcs::ReliabilityWeightedMapper>();
    }
    MCS_REQUIRE(false, "unknown mapper kind");
    return nullptr;
}

std::unique_ptr<mcs::TestScheduler> make_configured_scheduler(
    const mcs::SystemConfig& cfg) {
    using mcs::SchedulerKind;
    switch (cfg.scheduler) {
        case SchedulerKind::PowerAware:
            return std::make_unique<mcs::PowerAwareTestScheduler>(
                cfg.power_aware);
        case SchedulerKind::Periodic:
            return std::make_unique<mcs::PeriodicTestScheduler>(
                cfg.periodic_test_period);
        case SchedulerKind::Greedy:
            return std::make_unique<mcs::GreedyTestScheduler>();
        case SchedulerKind::None:
            return std::make_unique<mcs::NullTestScheduler>();
        case SchedulerKind::DeadlineAware:
            return std::make_unique<mcs::DeadlineAwareTestScheduler>(
                cfg.periodic_test_period,
                cfg.power_aware.guard_band_fraction,
                cfg.power_aware.max_concurrent_tests);
    }
    MCS_REQUIRE(false, "unknown scheduler kind");
    return nullptr;
}

std::optional<mcs::MappingResult> TracedMapper::map(
    const mcs::MapRequest& request, const mcs::PlatformView& view,
    mcs::Rng& rng) {
    const ScopedSpan span(spans_, Layer::Mapping);
    std::optional<mcs::MappingResult> result =
        inner_->map(request, view, rng);
    ++counts_->attempts;
    if (result.has_value()) {
        ++counts_->placed;
    }
    return result;
}

void TracedScheduler::epoch(mcs::SchedulerContext& ctx) {
    const ScopedSpan span(spans_, Layer::TestPolicy);
    inner_->epoch(ctx);
}

void install_decorators(mcs::SystemConfig& cfg, SpanRecorder* spans,
                        MapperCounts* counts) {
    MCS_REQUIRE(!cfg.mapper_factory && !cfg.scheduler_factory,
                "decorators wrap the configured policies, not a factory");
    const mcs::SystemConfig plain = cfg;
    cfg.mapper_factory = [plain, spans, counts] {
        return std::make_unique<TracedMapper>(make_configured_mapper(plain),
                                              spans, counts);
    };
    cfg.scheduler_factory = [plain, spans] {
        return std::make_unique<TracedScheduler>(
            make_configured_scheduler(plain), spans);
    };
}

}  // namespace perfbench
