#include "portfolio/engine_config.hpp"

#include <algorithm>

namespace ns::portfolio {

std::uint32_t EngineConfigRegistry::add(std::string name,
                                        solver::SolverOptions options) {
  const auto id = static_cast<std::uint32_t>(configs_.size());
  configs_.push_back(EngineConfig{id, std::move(name), options});
  return id;
}

EngineConfigRegistry EngineConfigRegistry::default_portfolio(
    std::size_t k, const solver::SolverOptions& base) {
  EngineConfigRegistry reg;
  const std::size_t want = std::max<std::size_t>(1, std::min<std::size_t>(k, 6));

  // id 0: the standalone default — EVSIDS + Glucose-EMA restarts + default
  // glue-tiered deletion. Also `single_best()`.
  reg.add("default", base);

  if (want > 1) {  // id 1: the paper's frequency-based deletion policy
    solver::SolverOptions o = base;
    o.deletion_policy = policy::PolicyKind::kFrequency;
    reg.add("frequency", o);
  }
  if (want > 2) {  // id 2: Luby restarts (agile on scrambled instances)
    solver::SolverOptions o = base;
    o.restart_mode = solver::RestartMode::kLuby;
    reg.add("luby", o);
  }
  if (want > 3) {  // id 3: VMTF decisions (Kissat focused mode)
    solver::SolverOptions o = base;
    o.decision_mode = solver::DecisionMode::kVmtf;
    reg.add("vmtf", o);
  }
  if (want > 4) {  // id 4: Luby + frequency deletion
    solver::SolverOptions o = base;
    o.restart_mode = solver::RestartMode::kLuby;
    o.deletion_policy = policy::PolicyKind::kFrequency;
    reg.add("luby-frequency", o);
  }
  if (want > 5) {  // id 5: VMTF + frequency deletion
    solver::SolverOptions o = base;
    o.decision_mode = solver::DecisionMode::kVmtf;
    o.deletion_policy = policy::PolicyKind::kFrequency;
    reg.add("vmtf-frequency", o);
  }
  return reg;
}

std::vector<solver::SolverOptions> EngineConfigRegistry::options_list() const {
  std::vector<solver::SolverOptions> out;
  out.reserve(configs_.size());
  for (const EngineConfig& c : configs_) out.push_back(c.options);
  return out;
}

}  // namespace ns::portfolio
