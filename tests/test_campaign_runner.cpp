#include "runner/campaign_runner.hpp"

#include <algorithm>
#include <atomic>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric_catalog.hpp"
#include "core/report.hpp"
#include "runner/result_sink.hpp"
#include "scenario/scenario_runner.hpp"
#include "sim/time.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace mcs {
namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string temp_path(const std::string& name) {
    return testing::TempDir() + name;
}

// --- sweep spec -----------------------------------------------------------

TEST(CampaignSpec, SplitsValueLists) {
    EXPECT_EQ(split_value_list("a, b ,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split_value_list("solo"), (std::vector<std::string>{"solo"}));
    EXPECT_THROW(split_value_list("a,,b"), RequireError);
    EXPECT_THROW(split_value_list(""), RequireError);
}

TEST(CampaignSpec, ExtractsAxesAndStripsRunnerKeys) {
    Config cfg;
    cfg.set("width", "4");
    cfg.set("height", "4");
    cfg.set("sweep.scheduler", "power-aware, none");
    cfg.set("sweep.occupancy", "0.3, 0.6, 0.9");
    cfg.set("replicas", "2");
    cfg.set("campaign_seed", "7");
    cfg.set("jobs", "3");
    cfg.set("seconds", "1.5");

    const CampaignSpec spec = CampaignSpec::from_config(cfg);
    EXPECT_EQ(spec.replicas, 2);
    EXPECT_EQ(spec.campaign_seed, 7u);
    EXPECT_EQ(spec.default_jobs, 3);
    EXPECT_DOUBLE_EQ(spec.seconds, 1.5);
    ASSERT_EQ(spec.axes.size(), 2u);  // sorted by key
    EXPECT_EQ(spec.axes[0].key, "occupancy");
    EXPECT_EQ(spec.axes[1].key, "scheduler");
    EXPECT_EQ(spec.cell_count(), 6u);
    EXPECT_EQ(spec.replica_count(), 12u);
    EXPECT_FALSE(spec.base.has("sweep.scheduler"));
    EXPECT_FALSE(spec.base.has("replicas"));
    EXPECT_FALSE(spec.base.has("jobs"));
    EXPECT_TRUE(spec.base.has("width"));
}

TEST(CampaignSpec, CellPointDecodesCartesianOrder) {
    CampaignSpec spec;
    spec.axes = {{"a", {"1", "2"}}, {"b", {"x", "y", "z"}}};
    // Last axis fastest: cell 4 = a index 1, b index 1.
    const auto point = spec.cell_point(4);
    ASSERT_EQ(point.size(), 2u);
    EXPECT_EQ(point[0], (std::pair<std::string, std::string>{"a", "2"}));
    EXPECT_EQ(point[1], (std::pair<std::string, std::string>{"b", "y"}));
    EXPECT_EQ(spec.cell_label(4), "a=2 b=y");
    EXPECT_THROW(spec.cell_point(6), RequireError);
}

TEST(CampaignSpec, RejectsKeyBothSweptAndFixed) {
    Config cfg;
    cfg.set("occupancy", "0.5");
    cfg.set("sweep.occupancy", "0.3, 0.6");
    EXPECT_THROW(CampaignSpec::from_config(cfg), RequireError);
}

TEST(CampaignSpec, ReplicasOutOfIntRangeRejected) {
    // 4294967297 = 2^32 + 1 used to narrow to 1 replica.
    Config cfg;
    cfg.set("replicas", "4294967297");
    try {
        (void)CampaignSpec::from_config(cfg);
        FAIL() << "replicas=4294967297 was accepted";
    } catch (const RequireError& e) {
        EXPECT_NE(std::string(e.what()).find("'replicas'"),
                  std::string::npos)
            << e.what();
    }
}

/// Expects `fn` to throw a RequireError whose message names `key`.
template <typename Fn>
void expect_rejects_naming(const std::string& key, const std::string& value,
                           Fn&& fn) {
    try {
        fn();
        ADD_FAILURE() << key << "=" << value << " was accepted";
    } catch (const RequireError& e) {
        EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CampaignSpec, SecondsMustFitTheSimulatedClock) {
    for (const char* text : {"inf", "nan", "1e300", "-1", "0"}) {
        Config cfg;
        cfg.set("seconds", text);
        expect_rejects_naming("seconds", text,
                              [&] { (void)CampaignSpec::from_config(cfg); });
    }
}

TEST(RunHorizon, SecondsMustFitTheSimulatedClock) {
    // Nothing runs: run_horizon only reads the configuration and whether
    // the system was restored.
    const ManycoreSystem sys(SystemConfig{});
    for (const char* text : {"-1", "1e300", "0", "18446744074"}) {
        Config cfg;
        cfg.set("seconds", text);
        expect_rejects_naming("seconds", text,
                              [&] { (void)run_horizon(cfg, sys, 10.0); });
    }
    Config cfg;
    cfg.set("seconds", "2.5");
    EXPECT_EQ(run_horizon(cfg, sys, 10.0), 2500 * kMillisecond);
    EXPECT_EQ(run_horizon(Config{}, sys, 10.0), 10 * kSecond);
}

TEST(CampaignSpec, ReplicaSeedsAreStableAndDistinct) {
    CampaignSpec spec;
    spec.campaign_seed = 42;
    spec.replicas = 8;
    const std::uint64_t s0 = spec.replica_seed(0);
    EXPECT_EQ(s0, Rng::stream_seed(42, 0) >> 1);  // int64-safe range
    for (int r = 1; r < 8; ++r) {
        EXPECT_NE(spec.replica_seed(r), s0);
        EXPECT_EQ(spec.replica_seed(r), spec.replica_seed(r));
    }
    // The derived seed lands in the replica config.
    const Config cfg = spec.replica_config(0, 3);
    EXPECT_EQ(static_cast<std::uint64_t>(cfg.get_int("seed", 0)),
              spec.replica_seed(3));
}

// --- campaign runner ------------------------------------------------------

CampaignSpec small_system_spec() {
    Config cfg;
    cfg.set("width", "4");
    cfg.set("height", "4");
    cfg.set("occupancy", "0.8");
    cfg.set("sweep.scheduler", "power-aware, none");
    cfg.set("replicas", "2");
    cfg.set("campaign_seed", "11");
    cfg.set("seconds", "0.2");
    return CampaignSpec::from_config(cfg);
}

TEST(CampaignRunner, ParallelEqualsSequential) {
    CampaignRunner runner(small_system_spec());
    const CampaignResult seq = runner.run(1);
    ASSERT_EQ(seq.failed_count(), 0u);

    const std::string seq_csv = temp_path("campaign_seq.csv");
    const std::string seq_rep = temp_path("replicas_seq.csv");
    write_campaign_csv(seq, seq_csv);
    write_replica_csv(seq, seq_rep);

    // 3 does not divide the four replicas; 8 and 100 exceed them, so the
    // pool runs one worker per replica.
    for (int jobs : {2, 3, 8, 100}) {
        const CampaignResult par = CampaignRunner(small_system_spec())
                                       .run(jobs);
        ASSERT_EQ(par.replicas.size(), seq.replicas.size());
        for (std::size_t i = 0; i < seq.replicas.size(); ++i) {
            const ReplicaResult& a = seq.replicas[i];
            const ReplicaResult& b = par.replicas[i];
            EXPECT_EQ(a.seed, b.seed);
            // Bit-identical metrics, not approximately equal.
            EXPECT_EQ(a.metrics.work_cycles_per_s,
                      b.metrics.work_cycles_per_s);
            EXPECT_EQ(a.metrics.energy_total_j, b.metrics.energy_total_j);
            EXPECT_EQ(a.metrics.mean_power_w, b.metrics.mean_power_w);
            EXPECT_EQ(a.metrics.tasks_completed, b.metrics.tasks_completed);
            EXPECT_EQ(a.metrics.tests_completed, b.metrics.tests_completed);
        }
        const std::string par_csv =
            temp_path("campaign_j" + std::to_string(jobs) + ".csv");
        const std::string par_rep =
            temp_path("replicas_j" + std::to_string(jobs) + ".csv");
        write_campaign_csv(par, par_csv);
        write_replica_csv(par, par_rep);
        EXPECT_EQ(read_file(seq_csv), read_file(par_csv)) << "jobs=" << jobs;
        EXPECT_EQ(read_file(seq_rep), read_file(par_rep)) << "jobs=" << jobs;
        EXPECT_FALSE(read_file(par_csv).empty());
    }
}

TEST(CampaignRunner, ThrowingReplicaDoesNotPoisonOthers) {
    Config cfg;
    cfg.set("sweep.x", "a, b, c");
    cfg.set("replicas", "2");
    CampaignSpec spec = CampaignSpec::from_config(cfg);
    CampaignRunner runner(std::move(spec));
    runner.set_replica_fn([](const Config& replica_cfg, double) {
        if (replica_cfg.get_string("x", "") == "b") {
            throw std::runtime_error("injected failure");
        }
        RunMetrics m;
        m.work_cycles_per_s = 1.0;
        return m;
    });
    const CampaignResult res = runner.run(4);
    ASSERT_EQ(res.replicas.size(), 6u);
    EXPECT_EQ(res.failed_count(), 2u);
    EXPECT_EQ(res.ok_count(), 4u);
    for (const ReplicaResult& r : res.replicas) {
        if (r.cell == 1) {
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.error, "injected failure");
        } else {
            EXPECT_TRUE(r.ok);
            EXPECT_EQ(r.metrics.work_cycles_per_s, 1.0);
        }
    }
    // Aggregation skips the failed cell but keeps the healthy ones.
    EXPECT_TRUE(res.cell_stats(1, campaign_metrics()[0].get).empty());
    EXPECT_EQ(res.cell_stats(0, campaign_metrics()[0].get).count(), 2u);
    // The summary and CSVs stay writable with failures present.
    EXPECT_NE(format_campaign_summary(res).find("injected failure"),
              std::string::npos);
    write_campaign_csv(res, temp_path("failed_cells.csv"));
    const std::string csv = read_file(temp_path("failed_cells.csv"));
    EXPECT_NE(csv.find("nan"), std::string::npos);
}

// One metric list: every catalog scalar reaches the out= CSV and the run
// report, and every campaign column is drawn from the catalog.
TEST(MetricCatalog, EveryNameReachesEverySerializer) {
    RunMetrics m;
    m.sim_time = kSecond;

    const std::string csv_path = temp_path("catalog_metrics.csv");
    write_metrics_csv(m, csv_path);
    std::set<std::string> csv_rows;
    std::istringstream csv(read_file(csv_path));
    for (std::string line; std::getline(csv, line);) {
        csv_rows.insert(line.substr(0, line.find(',')));
    }

    std::ostringstream report;
    telemetry::write_run_report(m, nullptr, report);
    const telemetry::JsonValue doc = telemetry::parse_json(report.str());
    const telemetry::JsonValue& report_metrics = doc.at("metrics");

    for (const MetricDef& def : metric_catalog()) {
        EXPECT_TRUE(csv_rows.count(def.name)) << def.name << " not in out=";
        EXPECT_TRUE(report_metrics.has(def.name))
            << def.name << " not in the run report";
    }

    Config cfg;
    cfg.set("replicas", "1");
    CampaignRunner runner(CampaignSpec::from_config(cfg));
    runner.set_replica_fn([&](const Config&, double) { return m; });
    const std::string campaign_path = temp_path("catalog_campaign.csv");
    write_campaign_csv(runner.run(1), campaign_path);
    const std::string campaign = read_file(campaign_path);
    const std::string header = campaign.substr(0, campaign.find('\n'));
    for (const MetricDef& def : campaign_metrics()) {
        EXPECT_NE(header.find(std::string(def.name) + "_mean"),
                  std::string::npos)
            << def.name << " not in the campaign CSV";
    }
}

TEST(CampaignCsv, IsLocaleIndependent) {
    // snprintf/strtod honour LC_NUMERIC; charconv must not.
    Config cfg;
    cfg.set("replicas", "1");
    CampaignRunner runner(CampaignSpec::from_config(cfg));
    runner.set_replica_fn([](const Config&, double) {
        RunMetrics m;
        m.work_cycles_per_s = 0.3;
        return m;
    });
    const CampaignResult res = runner.run(1);
    const std::string c_path = temp_path("locale_c.csv");
    const std::string de_path = temp_path("locale_de.csv");
    write_replica_csv(res, c_path);
    if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
        GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
    }
    write_replica_csv(res, de_path);
    std::setlocale(LC_NUMERIC, "C");
    EXPECT_NE(read_file(c_path).find(",0.3,"), std::string::npos);
    EXPECT_EQ(read_file(de_path), read_file(c_path));
}

TEST(CampaignRunner, BadConfigCellFailsInPlace) {
    Config cfg;
    cfg.set("width", "4");
    cfg.set("height", "4");
    cfg.set("occupancy", "0.5");
    cfg.set("sweep.node", "16nm, 3nm");  // 3nm is not a known node
    cfg.set("seconds", "0.1");
    CampaignRunner runner(CampaignSpec::from_config(cfg));
    const CampaignResult res = runner.run(2);
    ASSERT_EQ(res.replicas.size(), 2u);
    EXPECT_TRUE(res.replicas[0].ok);
    EXPECT_FALSE(res.replicas[1].ok);
    EXPECT_NE(res.replicas[1].error.find("unknown technology node"),
              std::string::npos);
}

TEST(CampaignRunner, FindCellMatchesPoints) {
    CampaignSpec spec;
    spec.axes = {{"a", {"1", "2"}}, {"b", {"x", "y"}}};
    CampaignRunner runner(spec);
    runner.set_replica_fn(
        [](const Config&, double) { return RunMetrics{}; });
    const CampaignResult res = runner.run(1);
    const std::vector<std::pair<std::string, std::string>> want{{"a", "2"},
                                                                {"b", "x"}};
    EXPECT_EQ(res.find_cell(want), 2u);
    const std::vector<std::pair<std::string, std::string>> missing{
        {"a", "9"}};
    EXPECT_THROW(res.find_cell(missing), RequireError);
}

TEST(CampaignRunner, ProgressReachesTotal) {
    Config cfg;
    cfg.set("sweep.x", "a, b");
    cfg.set("replicas", "3");
    CampaignRunner runner(CampaignSpec::from_config(cfg));
    runner.set_replica_fn(
        [](const Config&, double) { return RunMetrics{}; });
    std::size_t last_done = 0;
    std::size_t calls = 0;
    runner.set_progress([&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, 6u);
        EXPECT_GE(done, 1u);
        last_done = std::max(last_done, done);
        ++calls;
    });
    runner.run(3);
    EXPECT_EQ(calls, 6u);
    EXPECT_EQ(last_done, 6u);
}

TEST(CampaignRunner, ProgressExceptionIsRethrownAfterEveryReplica) {
    Config cfg;
    cfg.set("sweep.x", "a, b");
    cfg.set("replicas", "3");
    CampaignRunner runner(CampaignSpec::from_config(cfg));
    std::atomic<int> ran{0};
    runner.set_replica_fn([&ran](const Config&, double) {
        ++ran;
        return RunMetrics{};
    });
    runner.set_progress([](std::size_t, std::size_t) {
        throw std::runtime_error("progress failed");
    });
    EXPECT_THROW(runner.run(2), std::runtime_error);
    EXPECT_EQ(ran.load(), 6);
}

TEST(CampaignRunner, ForksReplicasFromWarmCheckpoint) {
    // Warm up one system to a checkpoint, then sweep a policy knob with
    // every cell restoring from that snapshot. Replica configs differ from
    // the capture (seed + swept knob), so the spec sets restore_relax; the
    // structural fingerprint still guards the fork.
    const std::string snap = temp_path("campaign_fork.snapshot.json");
    Config warm;
    warm.set("side", "4");
    warm.set("occupancy", "0.5");
    {
        auto sys = make_system(warm);
        sys->checkpoint_at(100 * kMillisecond, snap);
        sys->run(from_seconds(0.3));
    }

    Config spec_cfg = warm;
    spec_cfg.set("restore", snap);
    spec_cfg.set("restore_relax", "true");
    spec_cfg.set("seconds", "0.3");
    spec_cfg.set("replicas", "1");
    spec_cfg.set("sweep.guard_band", "0.02, 0.08");
    CampaignRunner runner(CampaignSpec::from_config(spec_cfg));
    const CampaignResult result = runner.run(2);

    ASSERT_EQ(result.replicas.size(), 2u);
    for (const ReplicaResult& r : result.replicas) {
        ASSERT_TRUE(r.ok) << r.error;
        // Forked runs carry the warm-up's history: by the checkpoint the
        // warm run had already admitted work, so a fork cannot start cold.
        EXPECT_EQ(r.metrics.sim_time, from_seconds(0.3));
        EXPECT_GT(r.metrics.apps_completed, 0u);
    }
    std::remove(snap.c_str());
}

TEST(CampaignRunner, DefaultReplicaHonoursScenario) {
    // The default replica body is the one system factory, so a scenario=
    // key in the spec reaches every replica without a set_replica_fn.
    Config cfg;
    cfg.set("side", "8");
    cfg.set("occupancy", "0.7");
    cfg.set("seconds", "2");
    const auto run_one = [](const Config& spec_cfg) {
        CampaignRunner runner(CampaignSpec::from_config(spec_cfg));
        CampaignResult res = runner.run(1);
        EXPECT_EQ(res.replicas.size(), 1u);
        EXPECT_TRUE(res.replicas.front().ok) << res.replicas.front().error;
        return res;
    };
    const CampaignResult plain = run_one(cfg);
    cfg.set("scenario", std::string(MCS_SOURCE_DIR) +
                            "/examples/scenarios/budget_cut.json");
    const CampaignResult cut = run_one(cfg);

    const RunMetrics direct =
        run_system(cut.spec.replica_config(0, 0), from_seconds(2.0));
    for (const MetricDef& def : metric_catalog()) {
        const double want = def.get(direct);
        const double got = def.get(cut.replicas.front().metrics);
        EXPECT_TRUE(got == want || (std::isnan(got) && std::isnan(want)))
            << def.name << ": campaign " << got << " vs run_system " << want;
    }
    // The budget cut lowers the chip's mean power against the same spec
    // without the scenario.
    EXPECT_LT(cut.replicas.front().metrics.mean_power_w,
              plain.replicas.front().metrics.mean_power_w);
}

}  // namespace
}  // namespace mcs
