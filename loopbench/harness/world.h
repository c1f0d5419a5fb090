// The simulated world the workloads serve: harvest_serve's linear
// environment (action a in context x pays clamp01(w_a · [1, x]) plus
// uniform noise), drawn once from the seed into a pool of contexts with
// every action's reward precomputed, so a decider's per-call client work is
// two table reads and the timed work is the service's own.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "logs/scavenger.h"
#include "serve/persist.h"
#include "serve/service.h"
#include "serve/trainer.h"
#include "store/format.h"
#include "util/hash.h"
#include "util/rng.h"

namespace loopbench {

inline constexpr std::size_t kActions = 3;
inline constexpr std::size_t kDim = 4;

struct World {
  std::vector<double> true_weights;  ///< kActions rows of kDim+1, bias first
  std::vector<double> contexts;      ///< pool rows of kDim
  std::vector<double> rewards;       ///< pool rows of kActions

  std::span<const double> context(std::size_t i) const {
    return {contexts.data() + i * kDim, kDim};
  }
  double reward(std::size_t i, std::uint32_t action) const {
    return rewards[i * kActions + action];
  }

  double mean_reward(std::span<const double> x, std::uint32_t action) const {
    const double* w = true_weights.data() + action * (kDim + 1);
    double r = w[0];
    for (std::size_t d = 0; d < kDim; ++d) r += w[1 + d] * x[d];
    return r;
  }

  static World make(std::uint64_t seed, std::size_t pool) {
    World world;
    harvest::util::Rng rng(harvest::util::derive_stream_seed(seed, 1000));
    world.true_weights.resize(kActions * (kDim + 1));
    for (std::size_t a = 0; a < kActions; ++a) {
      for (std::size_t j = 0; j <= kDim; ++j) {
        world.true_weights[a * (kDim + 1) + j] = rng.uniform(-0.4, 0.4);
      }
      world.true_weights[a * (kDim + 1)] += 0.5;  // rewards centred in [0, 1]
    }
    world.contexts.resize(pool * kDim);
    world.rewards.resize(pool * kActions);
    for (std::size_t i = 0; i < pool; ++i) {
      for (std::size_t d = 0; d < kDim; ++d) {
        world.contexts[i * kDim + d] = rng.uniform();
      }
      for (std::size_t a = 0; a < kActions; ++a) {
        const double r = world.mean_reward(world.context(i),
                                           static_cast<std::uint32_t>(a)) +
                         rng.uniform(-0.05, 0.05);
        world.rewards[i * kActions + a] = std::clamp(r, 0.0, 1.0);
      }
    }
    return world;
  }
};

inline harvest::store::Schema make_schema() {
  harvest::store::Schema schema;
  schema.decision_event = "serve";
  for (std::size_t i = 0; i < kDim; ++i) {
    schema.context_fields.push_back("x" + std::to_string(i));
  }
  schema.action_field = "action";
  schema.reward_field = "reward";
  schema.propensity_field = "propensity";
  schema.num_actions = static_cast<std::uint32_t>(kActions);
  schema.reward_lo = 0;
  schema.reward_hi = 1;
  return schema;
}

inline harvest::logs::ScavengeSpec make_spec(
    const harvest::store::Schema& schema) {
  harvest::logs::ScavengeSpec spec;
  spec.decision_event = schema.decision_event;
  spec.context_fields = schema.context_fields;
  spec.action_field = schema.action_field;
  spec.reward_field = schema.reward_field;
  spec.propensity_field = schema.propensity_field;
  spec.reward_transform = [](double r) { return r; };
  spec.num_actions = schema.num_actions;
  spec.reward_range = {schema.reward_lo, schema.reward_hi};
  return spec;
}

/// What the serving program builds before its first decision: the service
/// with its rings allocated (the ring vectors are value-initialised, so
/// every slot is touched here, not on the first decisions), its deciders,
/// the retrainer and the snapshot store. Members are destroyed in reverse,
/// so the trainer goes before the service it refers to.
struct ServingStack {
  std::unique_ptr<harvest::serve::DecisionService> service;
  std::vector<harvest::serve::Decider*> deciders;
  std::unique_ptr<harvest::serve::SnapshotTrainer> trainer;
  std::unique_ptr<harvest::serve::SnapshotStore> store;

  ServingStack(std::uint64_t seed, std::size_t ring_capacity,
               std::size_t num_deciders, const std::string& snapshot_dir) {
    service = std::make_unique<harvest::serve::DecisionService>(
        harvest::serve::DecisionService::Options{.num_actions = kActions,
                                                 .dim = kDim,
                                                 .log_capacity = ring_capacity,
                                                 .seed = seed},
        harvest::serve::PolicySnapshot::uniform(1, kActions, kDim));
    for (std::size_t t = 0; t < num_deciders; ++t) {
      deciders.push_back(&service->add_decider());
    }
    trainer = std::make_unique<harvest::serve::SnapshotTrainer>(
        *service, harvest::serve::SnapshotTrainer::Options{
                      .epsilon = 0.2, .train = {}, .min_rows = 32, .reward_range = {0, 1}});
    store = std::make_unique<harvest::serve::SnapshotStore>(
        harvest::serve::SnapshotStore::Options{.dir = snapshot_dir});
  }
};

/// Order-independent digest of one exploration tuple: summing these over a
/// set compares two sets without caring how a format orders the rows.
inline std::uint64_t tuple_digest(std::span<const double> context,
                                  std::uint32_t action, double reward,
                                  double propensity) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t h = harvest::util::mix64(action + 0x9e3779b97f4a7c15ULL);
  for (double x : context) h = harvest::util::mix64(h ^ bits(x));
  h = harvest::util::mix64(h ^ bits(reward));
  return harvest::util::mix64(h ^ bits(propensity));
}

}  // namespace loopbench
