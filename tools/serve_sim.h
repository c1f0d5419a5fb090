// The simulated serving world shared by harvest_serve and harvest_design:
// a learnable environment, the HLOG schema and scavenge spec its logs use,
// and the serve -> drain -> DatasetWriter -> Dataset::open -> scavenge
// steps of one round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "logs/scavenger.h"
#include "serve/service.h"
#include "store/dataset.h"
#include "util/hash.h"
#include "util/rng.h"

namespace harvest::tools {

/// Action a in context x pays clamp01(w_a · [1, x]) plus small uniform
/// noise. Linear in the features, so the ridge retrain can actually learn
/// it.
struct Environment {
  std::vector<std::vector<double>> true_weights;  // [action][dim+1]

  /// Clearly separated actions with rewards centered inside [0, 1].
  static Environment make(std::uint64_t seed, std::size_t num_actions,
                          std::size_t dim) {
    util::Rng rng(util::derive_stream_seed(seed, 1000));
    Environment env;
    env.true_weights.assign(num_actions, std::vector<double>(dim + 1));
    for (auto& w : env.true_weights) {
      for (auto& v : w) v = rng.uniform(-0.4, 0.4);
      w[0] += 0.5;
    }
    return env;
  }

  double reward(std::span<const double> x, std::uint32_t action,
                util::Rng& rng) const {
    const auto& w = true_weights[action];
    double r = w[0];
    for (std::size_t i = 0; i < x.size(); ++i) r += w[1 + i] * x[i];
    r += rng.uniform(-0.05, 0.05);
    return std::clamp(r, 0.0, 1.0);
  }
};

inline store::Schema make_schema(std::size_t num_actions, std::size_t dim) {
  store::Schema schema;
  schema.decision_event = "serve";
  for (std::size_t i = 0; i < dim; ++i) {
    schema.context_fields.push_back("x" + std::to_string(i));
  }
  schema.action_field = "action";
  schema.reward_field = "reward";
  schema.propensity_field = "propensity";
  schema.num_actions = static_cast<std::uint32_t>(num_actions);
  schema.reward_lo = 0;
  schema.reward_hi = 1;
  return schema;
}

inline logs::ScavengeSpec make_spec(const store::Schema& schema) {
  logs::ScavengeSpec spec;
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

/// Smallest power-of-two log ring that holds a thread's whole round.
inline std::size_t ring_capacity(std::size_t per_thread) {
  std::size_t ring = 2;
  while (ring < per_thread + 1) ring <<= 1;
  return ring;
}

/// Each decider serves `per_thread` uniform contexts on its own thread and
/// reports every reward right after its decision. Context and noise
/// streams depend only on (seed, thread). Returns the mean reward.
inline double serve_decisions(const std::vector<serve::Decider*>& deciders,
                              std::size_t per_thread, std::size_t dim,
                              const Environment& env, std::uint64_t seed) {
  std::vector<double> sums(deciders.size(), 0.0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < deciders.size(); ++t) {
    workers.emplace_back([&, t] {
      util::Rng ctx_rng(util::derive_stream_seed(seed, 2 * t));
      util::Rng env_noise(util::derive_stream_seed(seed, 2 * t + 1));
      double ctx[serve::kMaxContextDim] = {};
      const std::span<const double> span(ctx, dim);
      for (std::size_t i = 0; i < per_thread; ++i) {
        for (std::size_t d = 0; d < dim; ++d) ctx[d] = ctx_rng.uniform();
        const serve::Decision dec = deciders[t]->decide(span);
        const double r = env.reward(span, dec.action, env_noise);
        deciders[t]->log_reward(r);
        sums[t] += r;
      }
    });
  }
  for (auto& w : workers) w.join();
  double mean = 0;
  for (double s : sums) mean += s;
  return mean / static_cast<double>(per_thread * deciders.size());
}

/// Drains every logged decision into a fresh HLOG dataset at `dir`; a
/// dataset already there (say, half-written by a killed run) is removed
/// first. serve_decisions reports each reward before the next decision, so
/// no record reaches the log with the NaN reward of an unreported outcome.
inline serve::ServeDrainStats log_round(serve::DecisionService& service,
                                        const std::string& dir,
                                        const store::Schema& schema) {
  std::error_code stale_ec;
  std::filesystem::remove_all(dir, stale_ec);
  store::DatasetWriter writer(dir, schema);
  const serve::ServeDrainStats stats =
      service.drain([&writer](const serve::DecisionRecord& rec) {
        writer.add(rec.time, std::span<const double>(rec.context, rec.dim),
                   rec.action, rec.reward, rec.propensity);
      });
  writer.finish();
  return stats;
}

/// Reopens a round's dataset and scavenges its exploration tuples.
inline core::ExplorationDataset harvest_round(const std::string& dir,
                                              const logs::ScavengeSpec& spec) {
  return logs::scavenge(store::Dataset::open(dir), spec).data;
}

}  // namespace harvest::tools
