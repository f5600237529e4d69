#include "core/snapshot.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/system_factory.hpp"
#include "scenario/scenario_player.hpp"
#include "support/differential.hpp"
#include "support/mutation.hpp"
#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs {
namespace {

using testsupport::CheckpointPlan;
using testsupport::RunArtifacts;
using testsupport::TempFile;

/// Baseline differential configuration: 4x4 chip under moderate load with
/// the power-aware scheduler (the headline setup, scaled down).
SystemConfig base_config(std::uint64_t seed = 42) {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.seed = seed;
    cfg.workload.graphs.min_tasks = 2;
    cfg.workload.graphs.max_tasks = 6;
    const double capacity = 16.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(0.5, cfg.workload.graphs, capacity);
    return cfg;
}

/// Feature-loaded configuration: fault injection, NoC testing, segmented
/// sessions, mixed QoS classes -- every optional subsystem with persisted
/// state is active.
SystemConfig featured_config() {
    SystemConfig cfg = base_config(99);
    cfg.enable_fault_injection = true;
    cfg.faults.base_rate_per_core_s = 2.0;
    cfg.enable_noc_testing = true;
    cfg.noc_test.fault_rate_per_link_s = 0.5;
    cfg.segmented_tests = true;
    cfg.scheduler = SchedulerKind::Periodic;
    cfg.periodic_test_period = 100 * kMillisecond;
    cfg.workload.hard_rt_weight = 0.2;
    cfg.workload.soft_rt_weight = 0.3;
    cfg.workload.best_effort_weight = 0.5;
    return cfg;
}

void expect_identical(const RunArtifacts& got, const RunArtifacts& want,
                      const std::string& label) {
    EXPECT_EQ(got.report, want.report) << label << ": run report drifted";
    EXPECT_EQ(got.trace, want.trace) << label << ": event trace drifted";
    EXPECT_EQ(got.registry, want.registry)
        << label << ": metrics registry drifted";
}

/// Runs the full differential: uninterrupted reference vs (a) the same run
/// interrupted by checkpoints and (b) a restored continuation from every
/// checkpoint. All artifacts must be byte-identical.
void run_differential(const SystemConfig& cfg, SimDuration horizon,
                     const std::vector<SimTime>& checkpoint_times,
                     const std::string& label) {
    const RunArtifacts fresh = testsupport::run_reference(cfg, horizon);

    std::vector<std::unique_ptr<TempFile>> files;
    std::vector<CheckpointPlan> plans;
    for (SimTime at : checkpoint_times) {
        files.push_back(std::make_unique<TempFile>("snapshot_" + label));
        plans.push_back({at, files.back()->path()});
    }
    const RunArtifacts interrupted =
        testsupport::run_reference(cfg, horizon, plans);
    expect_identical(interrupted, fresh, label + "/interrupted");

    for (std::size_t i = 0; i < plans.size(); ++i) {
        const RunArtifacts restored =
            testsupport::run_restored(cfg, plans[i].path);
        expect_identical(restored, fresh,
                         label + "/restored@" + std::to_string(i));
    }
}

TEST(Snapshot, DifferentialBaseline) {
    // Three checkpoint epochs spread across the run, all on power-epoch
    // boundaries (default epoch 100 us).
    run_differential(base_config(), kSecond,
                     {200 * kMillisecond, 400 * kMillisecond,
                      600 * kMillisecond},
                     "baseline");
}

TEST(Snapshot, DifferentialFeatured) {
    run_differential(featured_config(), kSecond,
                     {300 * kMillisecond, 500 * kMillisecond,
                      700 * kMillisecond},
                     "featured");
}

TEST(Snapshot, DifferentialAllSchedulers) {
    for (SchedulerKind kind :
         {SchedulerKind::PowerAware, SchedulerKind::Periodic,
          SchedulerKind::Greedy, SchedulerKind::None,
          SchedulerKind::DeadlineAware}) {
        SystemConfig cfg = base_config(7);
        cfg.scheduler = kind;
        cfg.periodic_test_period = 100 * kMillisecond;
        run_differential(cfg, 600 * kMillisecond, {300 * kMillisecond},
                         std::string("scheduler-") + to_string(kind));
    }
}

TEST(Snapshot, DifferentialAcrossSeeds) {
    for (std::uint64_t seed : {1ULL, 1234567ULL}) {
        run_differential(base_config(seed), 600 * kMillisecond,
                         {200 * kMillisecond},
                         "seed-" + std::to_string(seed));
    }
}

/// One run of `cfg` to `horizon`, with `spec` attached when non-null,
/// restored from `restore_path` when non-empty, writing `checkpoints`.
RunArtifacts run_leg(const SystemConfig& cfg, const ScenarioSpec* spec,
                     const std::string& restore_path, SimDuration horizon,
                     const std::vector<CheckpointPlan>& checkpoints = {}) {
    ManycoreSystem sys(cfg);
    telemetry::Tracer tracer(testsupport::kTraceCapacity);
    sys.set_tracer(&tracer);
    if (spec != nullptr) {
        sys.attach_scenario(std::make_unique<ScenarioPlayer>(*spec));
    }
    if (!restore_path.empty()) {
        sys.restore(load_snapshot_file(restore_path));
    }
    for (const CheckpointPlan& cp : checkpoints) {
        sys.checkpoint_at(cp.at, cp.path);
    }
    return testsupport::capture(sys, tracer, horizon);
}

/// `text` with the seq of every events entry blanked: restore renumbers
/// the queue from 1 in the captured order, so a capture taken after a
/// restore differs from the uninterrupted one only there.
std::string without_event_seqs(const std::string& text) {
    const std::size_t events = text.find("\"events\":[");
    return text.substr(0, events) +
           std::regex_replace(text.substr(events), std::regex(R"("seq":\d+)"),
                              R"("seq":_)");
}

TEST(Snapshot, ChainedCheckpointRestoresByteIdentical) {
    // Every restored event carries the record it was captured from, so a
    // restored run checkpoints again: restore at t1, capture at t2.
    const ScenarioSpec spec = parse_scenario_text(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"chain\","
        "\"directives\":["
        "{\"at_us\":150000,\"kind\":\"arrival-burst\",\"apps\":4,"
        "\"tasks\":4,\"qos\":\"soft-RT\"},"
        "{\"at_us\":250000,\"kind\":\"set-budget\",\"tdp_scale\":0.7},"
        "{\"at_us\":450000,\"kind\":\"abort-tests\"}]}");
    struct Case {
        std::string label;
        SystemConfig cfg;
        const ScenarioSpec* spec;
        SimDuration horizon;
        SimTime t1, t2;
    };
    const Case cases[] = {
        {"baseline", base_config(), nullptr, kSecond, 300 * kMillisecond,
         600 * kMillisecond},
        {"featured", featured_config(), nullptr, kSecond, 300 * kMillisecond,
         700 * kMillisecond},
        // The third directive is pending at t2.
        {"scenario", base_config(5), &spec, 600 * kMillisecond,
         200 * kMillisecond, 400 * kMillisecond},
    };
    for (const Case& c : cases) {
        const RunArtifacts fresh = run_leg(c.cfg, c.spec, "", c.horizon);
        TempFile first("chain_t1"), second("chain_t2"), chained("chain_re");
        expect_identical(run_leg(c.cfg, c.spec, "", c.horizon,
                                 {{c.t1, first.path()},
                                  {c.t2, second.path()}}),
                         fresh, c.label + "/interrupted");
        expect_identical(run_leg(c.cfg, c.spec, first.path(), c.horizon,
                                 {{c.t2, chained.path()}}),
                         fresh, c.label + "/restored@t1");
        const std::string want = testsupport::read_file(second.path());
        EXPECT_EQ(c.spec != nullptr,
                  want.find("\"kind\":\"scenario\"") != std::string::npos)
            << c.label;
        EXPECT_EQ(without_event_seqs(testsupport::read_file(chained.path())),
                  without_event_seqs(want))
            << c.label << ": chained capture drifted";
        expect_identical(run_leg(c.cfg, c.spec, chained.path(), c.horizon),
                         fresh, c.label + "/chained@t2");
    }
}

// ---------------------------------------------------------------- guards

/// Writes one snapshot of `cfg` at `at` (run to `horizon`) and returns its
/// bytes; `file` keeps the backing path alive for the caller.
std::string make_snapshot(const SystemConfig& cfg, SimDuration horizon,
                          SimTime at, TempFile& file) {
    testsupport::run_reference(cfg, horizon, {{at, file.path()}});
    return testsupport::read_file(file.path());
}

void replace_once(std::string& text, const std::string& from,
                  const std::string& to) {
    const std::size_t pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << "pattern not found: " << from;
    text.replace(pos, from.size(), to);
}

/// `text` with the first match of the regex `pattern` at or after byte
/// `from` replaced by `replacement` ($1 names the first group).
std::string edit_first(const std::string& text, const std::string& pattern,
                       const std::string& replacement,
                       std::size_t from = 0) {
    const std::regex re(pattern);
    std::smatch m;
    if (!std::regex_search(text.begin() + static_cast<std::ptrdiff_t>(from),
                           text.end(), m, re)) {
        ADD_FAILURE() << "pattern not found: " << pattern;
        return text;
    }
    const std::size_t pos = from + static_cast<std::size_t>(m.position(0));
    return text.substr(0, pos) + m.format(replacement) +
           text.substr(pos + static_cast<std::size_t>(m.length(0)));
}

class SnapshotGuards : public ::testing::Test {
protected:
    void SetUp() override {
        cfg_ = base_config();
        snapshot_ = make_snapshot(cfg_, 300 * kMillisecond,
                                  100 * kMillisecond, file_);
    }

    /// Restores `text` as a snapshot into a fresh system built from `cfg`,
    /// with a player for `spec` attached when it is non-null.
    static void restore_text(const SystemConfig& cfg, const std::string& text,
                             RestoreOptions opts = {},
                             const ScenarioSpec* spec = nullptr) {
        ManycoreSystem sys(cfg);
        if (spec != nullptr) {
            sys.attach_scenario(std::make_unique<ScenarioPlayer>(*spec));
        }
        sys.restore(telemetry::parse_json(text), opts);
    }

    /// Restoring the edited snapshot `text` (with `scenario_` attached, if
    /// set) must throw a RequireError whose message contains `what`.
    void expect_rejected(const std::string& text,
                         const std::string& what) const {
        ASSERT_NE(text, snapshot_) << "the edit did not apply";
        try {
            restore_text(cfg_, text, {},
                         scenario_ ? &*scenario_ : nullptr);
            ADD_FAILURE() << "restored a snapshot that must fail: " << what;
        } catch (const RequireError& e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    }

    SystemConfig cfg_;
    std::optional<ScenarioSpec> scenario_;
    TempFile file_{"snapshot_guard"};
    std::string snapshot_;
};

TEST_F(SnapshotGuards, TruncatedSnapshotFailsCleanly) {
    for (std::size_t cut : {snapshot_.size() / 2, snapshot_.size() - 2,
                            std::size_t{1}}) {
        EXPECT_THROW(telemetry::parse_json(snapshot_.substr(0, cut)),
                     RequireError)
            << "cut at " << cut;
    }
}

TEST_F(SnapshotGuards, EveryTruncationAndSeededEditFailsCleanly) {
    // The fixture's configuration captured early and without a tracer:
    // parsing every prefix costs the square of the size, and restore_text
    // attaches no tracer, so a trace ring would only be parsed.
    std::string text;
    {
        const TempFile file("snapshot_sweep");
        ManycoreSystem sys(cfg_);
        sys.checkpoint_at(50 * kMillisecond, file.path());
        sys.run(100 * kMillisecond);
        text = testsupport::read_file(file.path());
    }
    // The file ends in a newline after the document; every strict prefix
    // of the document itself is incomplete.
    const std::string_view json =
        std::string_view(text).substr(0, text.find_last_not_of('\n') + 1);
    testsupport::for_each_truncation(json, [](std::string_view prefix) {
        EXPECT_THROW(telemetry::parse_json(prefix), RequireError)
            << "prefix of " << prefix.size() << " bytes";
    });
    // An edited document either restores or fails with a RequireError from
    // the parse or the restore; any other exception escapes and fails the
    // test, and a crash fails the process.
    int restored = 0;
    testsupport::for_each_mutation(
        text, 20261020, 6000, [&](const std::string& edited) {
            try {
                restore_text(cfg_, edited);
                ++restored;
            } catch (const RequireError&) {
            }
        });
    // Most edits break the document; some (a digit of a double) restore.
    EXPECT_GT(restored, 0);
    EXPECT_LT(restored, 3000);
}

TEST_F(SnapshotGuards, CorruptedJsonFailsCleanly) {
    std::string text = snapshot_;
    replace_once(text, "\"cores\":", "\"bores\":");
    EXPECT_THROW(restore_text(cfg_, text), RequireError);
}

TEST_F(SnapshotGuards, TamperedCoreStateFailsCleanly) {
    // The first value of the first core record is the state enum (0..4).
    std::string text = snapshot_;
    replace_once(text, "\"cores\":[[", "\"cores\":[[9");
    EXPECT_THROW(restore_text(cfg_, text), RequireError);
}

TEST_F(SnapshotGuards, MalformedAppStateFailsCleanly) {
    // Per-app runtime state must fit the app's (regenerated) task graph;
    // the first mapped, unfinished app is the one a resumed run touches.
    const telemetry::JsonValue doc = telemetry::parse_json(snapshot_);
    const auto& apps = doc.at("workload").at("apps").array();
    std::size_t target = apps.size();
    for (std::size_t i = 0; i < apps.size() && target == apps.size(); ++i) {
        if (!apps[i].at("done").boolean() &&
            !apps[i].at("task_core").array().empty()) {
            target = i;
        }
    }
    ASSERT_LT(target, apps.size()) << "no mapped, unfinished app captured";
    ASSERT_GT(apps[target].at("waiting").array().size(), 1u);

    // Application records are flat objects that each open with "done".
    std::size_t record = snapshot_.find("\"apps\":[");
    for (std::size_t i = 0; i <= target; ++i) {
        record = snapshot_.find("{\"done\":", record + 1);
        ASSERT_NE(record, std::string::npos);
    }
    const std::string edited[] = {
        edit_first(snapshot_, R"("waiting":\[[^\]]*\])", R"("waiting":[])",
                   record),
        edit_first(snapshot_, R"("waiting":\[([^,\]]*)[^\]]*\])",
                   R"("waiting":[$1])", record),
        edit_first(snapshot_, R"("tasks_done":\d+)", R"("tasks_done":999)",
                   record),
    };
    for (const std::string& text : edited) {
        expect_rejected(text, "snapshot workload:");
    }
}

TEST_F(SnapshotGuards, MalformedTestStateFailsCleanly) {
    // Session V/F levels index per-level vectors and the running counts
    // gate admission, so restore checks each against what it counts.
    const telemetry::JsonValue doc = telemetry::parse_json(snapshot_);
    const auto off_by_one = [&](const std::string& key, std::int64_t n) {
        std::string text = snapshot_;
        replace_once(text, "\"" + key + "\":" + std::to_string(n),
                     "\"" + key + "\":" + std::to_string(n + 1));
        return text;
    };
    const std::string off_running = off_by_one(
        "tests_running", doc.at("test").at("tests_running").i64());
    const std::string off_pending = off_by_one(
        "pending_total", doc.at("workload").at("pending_total").i64());
    const std::pair<std::string, const char*> cases[] = {
        {edit_first(snapshot_, R"("exec":\[\{"active":(true|false),"vf":\d+)",
                    R"("exec":[{"active":$1,"vf":99)"),
         "snapshot test engine:"},
        {off_running, "snapshot test engine:"},
        {off_pending, "snapshot workload:"},
    };
    for (const auto& [text, prefix] : cases) {
        expect_rejected(text, prefix);
    }
}

TEST_F(SnapshotGuards, MalformedWorkloadIdsFailCleanly) {
    // A resumed run indexes the chip, the app table and each task graph
    // with the ids a snapshot carries, so restore checks every one: the
    // mapped cores, the app, task and core of each running task, and the
    // app and destination task of each in-flight edge. Waiting counts are
    // checked against the task's inputs before they narrow to 32 bits.

    // Messages of 100-400 KB (tens of microseconds per hop) keep edges in
    // flight often enough that this capture holds one beside running tasks.
    cfg_.workload.graphs.min_edge_bytes = 100'000;
    cfg_.workload.graphs.max_edge_bytes = 400'000;
    snapshot_ = make_snapshot(cfg_, 300 * kMillisecond, 100 * kMillisecond,
                              file_);
    const telemetry::JsonValue doc = telemetry::parse_json(snapshot_);
    const telemetry::JsonValue* edge = nullptr;
    for (const auto& e : doc.at("events").array()) {
        if (edge == nullptr && e.at("kind").string() == "edge") {
            edge = &e;
        }
    }
    ASSERT_NE(edge, nullptr) << "no in-flight edge captured";
    const auto& apps = doc.at("workload").at("apps").array();
    std::size_t unmapped = apps.size();
    for (std::size_t i = 0; i < apps.size() && unmapped == apps.size();
         ++i) {
        if (apps[i].at("task_core").array().empty()) {
            unmapped = i;
        }
    }
    ASSERT_LT(unmapped, apps.size()) << "every app is mapped";
    const auto& exec = doc.at("workload").at("core_exec").array();
    std::size_t core = exec.size();
    for (std::size_t c = 0; c < exec.size() && core == exec.size(); ++c) {
        if (exec[c].at("active").boolean()) {
            core = c;
        }
    }
    ASSERT_LT(core, exec.size()) << "no running task captured";
    const std::uint64_t run_app = exec[core].at("app").u64();
    const std::uint64_t run_task = exec[core].at("task").u64();
    const auto& run_cores = apps[run_app].at("task_core").array();
    ASSERT_GT(run_cores.size(), 1u);
    // Any other task of the running app sits on another core.
    const std::uint64_t other_task = (run_task + 1) % run_cores.size();
    ASSERT_NE(run_cores[other_task].u64(), core);

    const auto num = [](std::uint64_t v) { return std::to_string(v); };
    // `snapshot_` with the first `from` at or after byte `start` replaced.
    const auto edited = [&](const std::string& from, const std::string& to,
                            std::size_t start = 0) {
        std::string text = snapshot_;
        const std::size_t pos = text.find(from, start);
        if (pos != std::string::npos) {
            text.replace(pos, from.size(), to);
        }
        return text;
    };
    const std::uint64_t app = edge->at("a").u64();
    const std::string seq = "\"seq\":" + num(edge->at("seq").u64());
    const std::string edge_ids =
        seq + ",\"a\":" + num(app) + ",\"b\":" + num(edge->at("b").u64());
    const std::string running = ",\"task\":" + num(run_task) + ",";
    const std::string exec_app = "{\"active\":true,\"app\":";
    // The edge app's mapping, ending in its last task's core. Application
    // records are flat objects that each open with "done".
    std::size_t record = snapshot_.find("\"apps\":[");
    for (std::uint64_t i = 0; i <= app; ++i) {
        record = snapshot_.find("{\"done\":", record + 1);
        ASSERT_NE(record, std::string::npos);
    }
    const auto& mapped = apps[app].at("task_core").array();
    ASSERT_GT(mapped.size(), 1u);
    const std::string last_core =
        "," + num(mapped.back().u64()) + "],\"waiting\":";
    // Its first waiting count, moved by 2^32: the low 32 bits still match.
    const std::uint64_t first_wait =
        apps[app].at("waiting").array().front().u64();
    const std::string waiting = "\"waiting\":[" + num(first_wait) + ",";
    const std::pair<std::string, const char*> cases[] = {
        {edited(edge_ids, seq + ",\"a\":" + num(app) + ",\"b\":999"),
         "snapshot manifest:"},
        {edited(edge_ids, seq + ",\"a\":" + num(unmapped) + ",\"b\":" +
                              num(edge->at("b").u64())),
         "snapshot manifest:"},
        {edited(exec_app + num(run_app) + running,
                exec_app + num(unmapped) + running),
         "snapshot workload:"},
        {edited(last_core, ",99999],\"waiting\":", record),
         "snapshot workload:"},
        {edited(waiting,
                "\"waiting\":[" + num(first_wait + (1ULL << 32)) + ",",
                record),
         "snapshot workload:"},
        {edited(exec_app + num(run_app) + running,
                exec_app + num(run_app) + ",\"task\":" + num(other_task) +
                    ","),
         "snapshot workload:"},
    };
    for (const auto& [text, prefix] : cases) {
        expect_rejected(text, prefix);
    }
}

/// One events entry, laid out as the snapshot writer lays it out.
struct ManifestEntry {
    std::string kind;
    std::uint64_t when = 0;
    std::uint64_t seq = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

std::vector<ManifestEntry> manifest_of(const std::string& text) {
    const telemetry::JsonValue doc = telemetry::parse_json(text);
    std::vector<ManifestEntry> out;
    for (const auto& e : doc.at("events").array()) {
        out.push_back({e.at("kind").string(), e.at("when").u64(),
                       e.at("seq").u64(), e.at("a").u64(), e.at("b").u64()});
    }
    return out;
}

/// `text` with its events array (the document's last member) replaced.
std::string with_manifest(const std::string& text,
                          const std::vector<ManifestEntry>& events) {
    const std::string open = "\"events\":[";
    std::string out = text.substr(0, text.rfind(open) + open.size());
    for (const ManifestEntry& e : events) {
        out += (out.back() == '[' ? "" : ",");
        out += "{\"kind\":\"" + e.kind + "\",\"when\":" +
               std::to_string(e.when) + ",\"seq\":" + std::to_string(e.seq) +
               ",\"a\":" + std::to_string(e.a) +
               ",\"b\":" + std::to_string(e.b) + "}";
    }
    return out + text.substr(text.rfind(']'));
}

TEST_F(SnapshotGuards, MalformedEventManifestFailsCleanly) {
    // Each entry is checked alone and the replayed queue is checked against
    // the restored state: the arrivals still to come, one completion per
    // running task, session and link test, and each app's waiting inputs.
    // Messages of 100-400 KB keep an edge in flight at this capture, beside
    // arrivals, running tasks and a periodic test session.
    cfg_.workload.graphs.min_edge_bytes = 100'000;
    cfg_.workload.graphs.max_edge_bytes = 400'000;
    cfg_.scheduler = SchedulerKind::Periodic;
    cfg_.periodic_test_period = 100 * kMillisecond;
    const SimTime now = 108500 * kMicrosecond;
    snapshot_ = make_snapshot(cfg_, 300 * kMillisecond, now, file_);
    std::vector<ManifestEntry> manifest = manifest_of(snapshot_);
    ASSERT_EQ(with_manifest(snapshot_, manifest), snapshot_);
    // Index of the first `kind` entry (manifest.size() when there is none).
    const auto at = [&](const std::string& kind) {
        return static_cast<std::size_t>(
            std::find_if(manifest.begin(), manifest.end(),
                         [&](const ManifestEntry& e) { return e.kind == kind; }) -
            manifest.begin());
    };
    for (const char* kind :
         {"arrival", "task_complete", "test_session_complete", "edge"}) {
        ASSERT_LT(at(kind), manifest.size()) << "no " << kind << " captured";
    }
    // The manifest after `edit`.
    const auto edited = [&](auto edit) {
        std::vector<ManifestEntry> events = manifest;
        edit(events);
        return with_manifest(snapshot_, events);
    };
    const auto dropped = [&](const std::string& kind) {
        const std::size_t i = at(kind);
        return edited([i](auto& events) { events.erase(events.begin() + i); });
    };
    // The first `kind` entry with its id moved by 2^32: equal to a valid id
    // in the low 32 bits, so it must be checked before it narrows.
    const auto aliased = [&](const std::string& kind) {
        const std::size_t i = at(kind);
        return edited(
            [i](auto& events) { events[i].a += std::uint64_t{1} << 32; });
    };
    // A copy of the first `kind` entry, appended under a fresh seq.
    const auto duplicated = [&](const std::string& kind) {
        const std::size_t i = at(kind);
        return edited([i](auto& events) {
            ManifestEntry copy = events[i];
            copy.seq = events.back().seq + 1;
            events.push_back(copy);
        });
    };
    const std::pair<std::string, const char*> cases[] = {
        {dropped("arrival"), "snapshot manifest:"},
        {duplicated("arrival"), "snapshot manifest:"},
        // App 0 finished long before the capture.
        {edited([now](auto& events) {
             events.push_back({"arrival", now + 1000,
                               events.back().seq + 1, 0, 0});
         }),
         "snapshot manifest:"},
        {dropped("task_complete"), "snapshot manifest:"},
        {aliased("task_complete"), "snapshot manifest:"},
        {dropped("test_session_complete"), "snapshot manifest:"},
        {aliased("test_session_complete"), "snapshot manifest:"},
        {dropped("edge"), "snapshot manifest:"},
        {duplicated("edge"), "snapshot manifest:"},
        {edited([](auto& events) { events.front().kind = "bogus"; }),
         "snapshot manifest:"},
        {dropped("power_epoch"), "snapshot manifest:"},
        {duplicated("power_epoch"), "epoch already registered"},
        {edited([now](auto& events) { events.back().when = now; }),
         "snapshot manifest:"},
        {edited([](auto& events) { std::swap(events[0].seq, events[1].seq); }),
         "snapshot manifest:"},
    };
    for (const auto& [text, prefix] : cases) {
        expect_rejected(text, prefix);
    }

    // Link tests start on test-epoch boundaries (every 500 us), so a
    // capture on one holds the tests that epoch started: here the first
    // round, one test period in.
    cfg_ = base_config();
    cfg_.enable_noc_testing = true;
    cfg_.noc_test.test_period_target = 50 * kMillisecond;
    snapshot_ = make_snapshot(cfg_, 300 * kMillisecond, 50 * kMillisecond,
                              file_);
    manifest = manifest_of(snapshot_);
    ASSERT_LT(at("link_test_complete"), manifest.size());
    expect_rejected(dropped("link_test_complete"), "snapshot manifest:");
    expect_rejected(duplicated("link_test_complete"), "snapshot manifest:");
    expect_rejected(aliased("link_test_complete"), "snapshot manifest:");

    // A scenario player chains its directives, so a capture taken while
    // one is still to fire holds exactly one `scenario` entry.
    cfg_ = base_config(5);
    scenario_ = parse_scenario_text(
        "{\"schema\":\"mcs.scenario.v1\",\"name\":\"guard\","
        "\"directives\":["
        "{\"at_us\":150000,\"kind\":\"arrival-burst\",\"apps\":4,"
        "\"tasks\":4,\"qos\":\"soft-RT\"},"
        "{\"at_us\":250000,\"kind\":\"abort-tests\"}]}");
    run_leg(cfg_, &*scenario_, "", 300 * kMillisecond,
            {{200 * kMillisecond, file_.path()}});
    snapshot_ = testsupport::read_file(file_.path());
    manifest = manifest_of(snapshot_);
    ASSERT_LT(at("scenario"), manifest.size());
    expect_rejected(dropped("scenario"), "snapshot manifest:");
}

TEST_F(SnapshotGuards, MalformedComponentStateFailsCleanly) {
    // Each component checks the ids it loads on the 64-bit value, before
    // it narrows: a core's V/F level, a fault's core or a link fault's
    // link moved by 2^32 equals a valid one in its low 32 bits. Every
    // field is required; `cancelled` has no fallback.
    cfg_ = featured_config();
    snapshot_ = make_snapshot(cfg_, 300 * kMillisecond, 100 * kMillisecond,
                              file_);
    const telemetry::JsonValue doc = telemetry::parse_json(snapshot_);
    const auto& faults = doc.at("platform").at("faults").at("history");
    const auto& link_faults = doc.at("test").at("link").at("history");
    ASSERT_FALSE(faults.array().empty()) << "no fault captured";
    ASSERT_FALSE(link_faults.array().empty()) << "no link fault captured";
    const auto aliased = [](std::uint64_t id) {
        return std::to_string(id + (std::uint64_t{1} << 32));
    };
    const std::string level =
        aliased(doc.at("cores").array()[0].array()[1].u64());
    const std::string core = aliased(faults.array()[0].at("core").u64());
    const std::string link = aliased(link_faults.array()[0].at("link").u64());
    const std::pair<std::string, const char*> cases[] = {
        {edit_first(snapshot_, R"("cores":\[\[(\d+),\d+,)",
                    "\"cores\":[[$1," + level + ","),
         "core state:"},
        {edit_first(snapshot_, R"("history":\[\{"core":\d+)",
                    "\"history\":[{\"core\":" + core),
         "fault injector state:"},
        {edit_first(snapshot_, R"("history":\[\{"link":\d+)",
                    "\"history\":[{\"link\":" + link),
         "link tester state:"},
        {edit_first(snapshot_, R"(,"cancelled":\d+)", ""),
         "missing JSON member: cancelled"},
    };
    for (const auto& [text, what] : cases) {
        expect_rejected(text, what);
    }
}

TEST_F(SnapshotGuards, MalformedSchedulerStateFailsCleanly) {
    // The periodic scheduler's per-core due times fill on the first test
    // epoch. Each key must fit a CoreId and appear once; each value must be
    // a non-negative time.
    cfg_.scheduler = SchedulerKind::Periodic;
    cfg_.periodic_test_period = 100 * kMillisecond;
    snapshot_ = make_snapshot(cfg_, 300 * kMillisecond, 100 * kMillisecond,
                              file_);
    const std::string first = R"("due":\[\[(\d+),(\d+)\])";
    const std::string edited[] = {
        edit_first(snapshot_, first, R"("due":[[4294967296,$2])"),
        edit_first(snapshot_, first, R"("due":[[$1,$2],[$1,$2])"),
        edit_first(snapshot_, first, R"("due":[[$1,-7])"),
    };
    for (const std::string& text : edited) {
        expect_rejected(text, "scheduler state:");
    }
}

TEST_F(SnapshotGuards, TypeMutatedFieldsFailCleanly) {
    // A field whose JSON kind changed fails at its read, whichever loader
    // reads it: core records, app records, the power ledger and the
    // metrics registry.
    const std::string edited[] = {
        edit_first(snapshot_, R"("cores":\[\[(\d+),(\d+),(true|false),)",
                   R"("cores":[[$1,$2,1,)"),
        edit_first(snapshot_, R"(\{"done":(true|false),)", R"({"done":1,)"),
        edit_first(snapshot_, R"("committed":([-+.e0-9]+))",
                   R"("committed":"$1")"),
        edit_first(snapshot_, R"("lo":([-+.e0-9]+))", R"("lo":"$1")"),
    };
    for (const std::string& text : edited) {
        expect_rejected(text, "JSON: expected ");
    }
}

TEST_F(SnapshotGuards, SchemaVersionMismatchFailsCleanly) {
    std::string text = snapshot_;
    replace_once(text, "\"mcs.snapshot.v1\"", "\"mcs.snapshot.v2\"");
    EXPECT_THROW(restore_text(cfg_, text), RequireError);
}

TEST_F(SnapshotGuards, ConfigFingerprintGuardsRestore) {
    SystemConfig other = cfg_;
    other.power_aware.guard_band_fraction = 0.10;
    // Strict restore rejects any config change; relax_config forks the run
    // under the changed policy knob.
    EXPECT_THROW(restore_text(other, snapshot_), RequireError);
    EXPECT_NO_THROW(restore_text(other, snapshot_, {.relax_config = true}));
}

TEST_F(SnapshotGuards, StructuralMismatchFailsEvenRelaxed) {
    SystemConfig other = cfg_;
    other.width = 8;
    other.height = 8;
    EXPECT_THROW(restore_text(other, snapshot_, {.relax_config = true}),
                 RequireError);
    SystemConfig resized = cfg_;
    resized.segmented_tests = !resized.segmented_tests;
    EXPECT_THROW(restore_text(resized, snapshot_, {.relax_config = true}),
                 RequireError);
}

TEST_F(SnapshotGuards, SeedChangeIsAConfigMismatchOnly) {
    // A different seed is not structural: strict restore rejects it, a
    // relaxed fork accepts it (and regenerates the workload under the
    // *snapshot's* seed, so the captured arrival trace continues).
    SystemConfig other = cfg_;
    other.seed = cfg_.seed + 1;
    EXPECT_THROW(restore_text(other, snapshot_), RequireError);
    EXPECT_NO_THROW(restore_text(other, snapshot_, {.relax_config = true}));
}

TEST_F(SnapshotGuards, RestoreLifecycleGuards) {
    const telemetry::JsonValue doc = telemetry::parse_json(snapshot_);

    // Restoring twice is rejected.
    {
        ManycoreSystem sys(cfg_);
        sys.restore(doc);
        EXPECT_THROW(sys.restore(doc), RequireError);
    }
    // Restoring after run() is rejected.
    {
        ManycoreSystem sys(cfg_);
        sys.run(100 * kMillisecond);
        EXPECT_THROW(sys.restore(doc), RequireError);
    }
    // A restored run must finish the captured horizon, nothing else.
    {
        ManycoreSystem sys(cfg_);
        sys.restore(doc);
        EXPECT_EQ(sys.restored_horizon(), 300 * kMillisecond);
        EXPECT_THROW(sys.run(400 * kMillisecond), RequireError);
    }
}

TEST_F(SnapshotGuards, CheckpointRegistrationGuards) {
    ManycoreSystem sys(cfg_);
    EXPECT_THROW(sys.checkpoint_at(0, "x.json"), RequireError);
    // Not on a power-epoch boundary (default epoch is 100 us).
    EXPECT_THROW(sys.checkpoint_at(150 * kMicrosecond, "x.json"),
                 RequireError);
    EXPECT_THROW(sys.checkpoint_at(100 * kMillisecond, ""), RequireError);
    // At or past the horizon: rejected when the run starts.
    sys.checkpoint_at(300 * kMillisecond, file_.path());
    EXPECT_THROW(sys.run(300 * kMillisecond), RequireError);
}

TEST_F(SnapshotGuards, FingerprintsAreStableAndDiscriminating) {
    EXPECT_EQ(structural_fingerprint(cfg_), structural_fingerprint(cfg_));
    EXPECT_EQ(config_fingerprint(cfg_), config_fingerprint(cfg_));

    SystemConfig knob = cfg_;
    knob.power_aware.guard_band_fraction += 0.01;
    EXPECT_EQ(structural_fingerprint(knob), structural_fingerprint(cfg_));
    EXPECT_NE(config_fingerprint(knob), config_fingerprint(cfg_));

    SystemConfig shape = cfg_;
    shape.width = 8;
    EXPECT_NE(structural_fingerprint(shape), structural_fingerprint(cfg_));
    EXPECT_NE(config_fingerprint(shape), config_fingerprint(cfg_));
}

}  // namespace
}  // namespace mcs
