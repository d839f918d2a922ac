#include "online/cohort_map.hpp"

#include <stdexcept>

// Completes ServingStack so the map members (and register_tenant, defined
// in tenant.cpp) instantiate cleanly here.
#include "online/tenant.hpp"

namespace pp::online {

namespace {

/// The cohort id IS the metrics cohort label: stamp it over the learner
/// config's (default) label so every tenant's round/gate/buffer series is
/// addressable without per-caller wiring.
OnlineLearnerConfig with_cohort_label(OnlineLearnerConfig config,
                                      const std::string& id) {
  config.cohort = id;
  return config;
}

}  // namespace

CohortRegistryMap::Cohort::Cohort(std::string id,
                                  std::shared_ptr<models::RnnModel> initial,
                                  const data::Dataset& dataset_meta,
                                  const CohortConfig& config)
    : id_(std::move(id)),
      registry_(initial, config.quantize_replicas_for(*initial)),
      learner_(registry_, dataset_meta, with_cohort_label(config.learner, id_)),
      daemon_(learner_, config.daemon) {}

CohortRegistryMap::CohortRegistryMap() = default;

CohortRegistryMap::~CohortRegistryMap() { stop_daemons(); }

CohortRegistryMap::Cohort& CohortRegistryMap::create(
    std::string id, std::shared_ptr<models::RnnModel> initial,
    const data::Dataset& dataset_meta, const CohortConfig& config) {
  if (id.empty()) {
    throw std::invalid_argument("CohortRegistryMap: empty cohort id");
  }
  if (initial == nullptr) {
    // Checked here (not in ModelRegistry) because the Cohort initializer
    // list reads initial->quantized_serving() before the registry's own
    // null guard could fire.
    throw std::invalid_argument("CohortRegistryMap: null initial model for "
                                "cohort " + id);
  }
  // Construct outside the map lock: seeding a registry (and, for int8
  // cohorts, building weight replicas) is not cheap, and serving threads
  // routing to other cohorts must not wait on an onboarding tenant.
  auto cohort =
      std::make_unique<Cohort>(id, std::move(initial), dataset_meta, config);
  MutexLock lock(mutex_);
  const auto [it, inserted] = cohorts_.emplace(std::move(id),
                                               std::move(cohort));
  if (!inserted) {
    throw std::invalid_argument("CohortRegistryMap: duplicate cohort id: " +
                                it->first);
  }
  return *it->second;
}

CohortRegistryMap::Cohort* CohortRegistryMap::find(std::string_view id) {
  MutexLock lock(mutex_);
  const auto it = cohorts_.find(id);
  return it == cohorts_.end() ? nullptr : it->second.get();
}

const CohortRegistryMap::Cohort* CohortRegistryMap::find(
    std::string_view id) const {
  MutexLock lock(mutex_);
  const auto it = cohorts_.find(id);
  return it == cohorts_.end() ? nullptr : it->second.get();
}

CohortRegistryMap::Cohort& CohortRegistryMap::at(std::string_view id) {
  if (Cohort* cohort = find(id); cohort != nullptr) return *cohort;
  throw std::out_of_range("CohortRegistryMap: unknown cohort id: " +
                          std::string(id));
}

bool CohortRegistryMap::observe(std::string_view id,
                                const serving::JoinedSession& joined) {
  Cohort* cohort = find(id);
  if (cohort == nullptr) return false;
  cohort->observe(joined);
  return true;
}

std::size_t CohortRegistryMap::size() const {
  MutexLock lock(mutex_);
  return cohorts_.size();
}

std::vector<std::string> CohortRegistryMap::ids() const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(cohorts_.size());
  for (const auto& [id, cohort] : cohorts_) out.push_back(id);
  return out;
}

void CohortRegistryMap::start_daemons() {
  // Snapshot the cohort set, then start outside the map lock (start spawns
  // a thread; stop joins one — neither belongs under the routing lock).
  std::vector<Cohort*> cohorts;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, cohort] : cohorts_) cohorts.push_back(cohort.get());
  }
  for (Cohort* cohort : cohorts) {
    // try_start is the atomic form of `if (!running()) start()`: two
    // concurrent start_daemons() calls (or one racing a direct start)
    // must both succeed, not throw on the check-then-act gap.
    cohort->daemon().try_start();
  }
}

void CohortRegistryMap::stop_daemons() {
  std::vector<Cohort*> cohorts;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, cohort] : cohorts_) cohorts.push_back(cohort.get());
  }
  for (Cohort* cohort : cohorts) cohort->daemon().stop();
}

}  // namespace pp::online
