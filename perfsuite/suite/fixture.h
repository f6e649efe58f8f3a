// Trained-monitor fixture: the four paper variants trained once per build
// on a fixed Glucosym campaign, kept in the Experiment file cache (read by
// the sweep) and published to a ModelRegistry (read by the serve workloads).
// Training is not a workload: `bench_suite --make-fixture DIR` creates the
// fixture in its own process, so it is never timed and never counted in a
// measured run's RSS.
#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.h"

namespace cpsguard::suite {

/// Registry versions, in publish order.
inline constexpr std::uint64_t kMlpVersion = 1;
inline constexpr std::uint64_t kMlpCustomVersion = 2;
inline constexpr std::uint64_t kLstmVersion = 3;
inline constexpr std::uint64_t kLstmCustomVersion = 4;

/// Experiment configuration the fixture trains with; the sweep workload
/// uses it unchanged so every monitor() call is a cache hit. The campaign
/// seed is fixed: the run's --seed varies the load, never the models.
core::ExperimentConfig fixture_config(const std::string& dir, bool smoke);

std::string registry_dir(const std::string& fixture_dir);

/// Train, cache and publish all four variants into `dir`, replacing any
/// previous fixture, unless it already holds one of the current
/// configuration. The READY marker, holding the configuration
/// fingerprint, is written last.
void make_fixture(const std::string& dir, bool smoke);

/// Throws CpsError unless `dir` holds a complete fixture of the current
/// configuration.
void require_fixture(const std::string& dir, bool smoke);

/// SHA-256 over the model content of every registry version: display
/// name, architecture, scaler bytes and every tensor. Lineage metadata
/// (fresh run ids per publish) is left out, so identical training gives an
/// identical digest in every checkout.
std::string model_digest(const std::string& fixture_dir);

}  // namespace cpsguard::suite
