#include "core/policies/basic.h"

#include <stdexcept>

namespace harvest::core {

ConstantPolicy::ConstantPolicy(std::size_t num_actions, ActionId action)
    : DeterministicPolicy(num_actions), action_(action) {
  if (action >= num_actions) {
    throw std::invalid_argument("ConstantPolicy: action out of range");
  }
}

ActionId ConstantPolicy::choose(const FeatureVector& /*x*/) const {
  return action_;
}

std::string ConstantPolicy::name() const {
  return "constant(" + std::to_string(action_) + ")";
}

UniformRandomPolicy::UniformRandomPolicy(std::size_t num_actions)
    : Policy(num_actions) {
  if (num_actions == 0) {
    throw std::invalid_argument("UniformRandomPolicy: no actions");
  }
}

std::vector<double> UniformRandomPolicy::distribution(
    const FeatureVector& /*x*/) const {
  return std::vector<double>(num_actions(),
                             1.0 / static_cast<double>(num_actions()));
}

ActionId UniformRandomPolicy::act(const FeatureVector& /*x*/,
                                  util::Rng& rng) const {
  return static_cast<ActionId>(rng.uniform_index(num_actions()));
}

double UniformRandomPolicy::probability(const FeatureVector& /*x*/,
                                        ActionId a) const {
  if (a >= num_actions()) {
    throw std::out_of_range("UniformRandomPolicy::probability");
  }
  return 1.0 / static_cast<double>(num_actions());
}

EpsilonGreedyPolicy::EpsilonGreedyPolicy(PolicyPtr base, double epsilon)
    : Policy(base ? base->num_actions() : 0),
      base_(std::move(base)),
      epsilon_(epsilon) {
  if (!base_) throw std::invalid_argument("EpsilonGreedyPolicy: null base");
  if (epsilon < 0 || epsilon > 1) {
    throw std::invalid_argument("EpsilonGreedyPolicy: epsilon in [0,1]");
  }
}

std::vector<double> EpsilonGreedyPolicy::distribution(
    const FeatureVector& x) const {
  std::vector<double> dist = base_->distribution(x);
  const double uniform = epsilon_ / static_cast<double>(num_actions());
  for (double& p : dist) p = (1.0 - epsilon_) * p + uniform;
  return dist;
}

std::string EpsilonGreedyPolicy::name() const {
  return "eps-greedy(" + std::to_string(epsilon_) + ", " + base_->name() + ")";
}

FunctionPolicy::FunctionPolicy(std::size_t num_actions, Chooser chooser,
                               std::string name)
    : DeterministicPolicy(num_actions),
      chooser_(std::move(chooser)),
      name_(std::move(name)) {
  if (!chooser_) throw std::invalid_argument("FunctionPolicy: null chooser");
}

ActionId FunctionPolicy::choose(const FeatureVector& x) const {
  const ActionId a = chooser_(x);
  if (a >= num_actions()) {
    throw std::logic_error("FunctionPolicy: chooser returned bad action");
  }
  return a;
}

}  // namespace harvest::core
