#include "noc/link_test.hpp"

#include <utility>

#include "util/require.hpp"

namespace mcs {

LinkTester::LinkTester(std::size_t link_count, NocTestParams params,
                       std::uint64_t seed)
    : params_(params), rng_(seed), latent_(link_count) {
    MCS_REQUIRE(link_count > 0, "link tester needs links");
    MCS_REQUIRE(params_.fault_rate_per_link_s >= 0.0,
                "link fault rate must be non-negative");
    MCS_REQUIRE(params_.test_coverage >= 0.0 && params_.test_coverage <= 1.0,
                "coverage must be a probability");
    MCS_REQUIRE(params_.message_corruption_prob >= 0.0 &&
                    params_.message_corruption_prob <= 1.0,
                "corruption probability must be in [0,1]");
    MCS_REQUIRE(params_.test_bytes > 0, "test pattern must be non-empty");
    MCS_REQUIRE(params_.max_concurrent_tests > 0,
                "max concurrent link tests must be positive");
    MCS_REQUIRE(params_.test_period_target > 0,
                "test period target must be positive");
}

std::vector<LinkId> LinkTester::step(SimTime now, double dt_s) {
    MCS_REQUIRE(dt_s >= 0.0, "negative link fault step");
    std::vector<LinkId> fresh;
    if (params_.fault_rate_per_link_s <= 0.0 || dt_s <= 0.0) {
        return fresh;
    }
    const double p = params_.fault_rate_per_link_s * dt_s;
    for (std::size_t l = 0; l < latent_.size(); ++l) {
        if (latent_[l].has_value()) {
            continue;
        }
        if (rng_.bernoulli(p)) {
            LinkFault f;
            f.link = static_cast<LinkId>(l);
            f.injected = now;
            latent_[l] = history_.size();
            history_.push_back(f);
            fresh.push_back(f.link);
        }
    }
    return fresh;
}

bool LinkTester::has_latent_fault(LinkId link) const {
    MCS_REQUIRE(link < latent_.size(), "link id out of range");
    return latent_[link].has_value();
}

std::optional<LinkFault> LinkTester::attempt_detection(LinkId link,
                                                       SimTime now) {
    MCS_REQUIRE(link < latent_.size(), "link id out of range");
    auto& slot = latent_[link];
    if (!slot.has_value()) {
        return std::nullopt;
    }
    LinkFault& fault = history_[*slot];
    if (rng_.bernoulli(params_.test_coverage)) {
        fault.detected = true;
        fault.detected_at = now;
        ++detected_;
        slot.reset();  // repaired (spare-wire swap)
        return fault;
    }
    ++escaped_;
    return std::nullopt;
}

bool LinkTester::roll_message_corruption(LinkId link) {
    MCS_REQUIRE(link < latent_.size(), "link id out of range");
    if (!latent_[link].has_value()) {
        return false;
    }
    if (rng_.bernoulli(params_.message_corruption_prob)) {
        ++corrupted_;
        return true;
    }
    return false;
}


void LinkTester::save_state(telemetry::JsonWriter& w) const {
    telemetry::write_rng(w, "rng", rng_);
    telemetry::write_latent_slots(w, "latent", latent_);
    w.key("history");
    w.begin_array();
    for (const LinkFault& f : history_) {
        w.begin_object();
        w.field("link", static_cast<std::uint64_t>(f.link));
        w.field("injected", f.injected);
        w.field("detected", f.detected);
        w.field("detected_at", f.detected_at);
        w.end_object();
    }
    w.end_array();
    w.field("detected", detected_);
    w.field("escaped", escaped_);
    w.field("corrupted", corrupted_);
}

void LinkTester::load_state(const telemetry::JsonValue& doc) {
    std::vector<LinkFault> history;
    for (const auto& f : doc.at("history").array()) {
        const std::uint64_t link = f.at("link").u64();
        MCS_REQUIRE(link < latent_.size(),
                    "link tester state: fault link out of range");
        history.push_back(LinkFault{static_cast<LinkId>(link),
                                    f.at("injected").u64(),
                                    f.at("detected").boolean(),
                                    f.at("detected_at").u64()});
    }
    auto latent = telemetry::read_latent_slots(doc, "latent", history.size());
    MCS_REQUIRE(latent.size() == latent_.size(),
                "link tester state: link count mismatch");
    rng_ = telemetry::read_rng(doc, "rng");
    latent_ = std::move(latent);
    history_ = std::move(history);
    detected_ = doc.at("detected").u64();
    escaped_ = doc.at("escaped").u64();
    corrupted_ = doc.at("corrupted").u64();
}

}  // namespace mcs
