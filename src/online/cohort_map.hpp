// CohortRegistryMap — multi-tenant continual learning. Wang et al. frame
// the per-surface model as the deployment unit: tab prefetch, notification
// preload, and timeshift scheduling are different cohorts with different
// schemas, traffic shapes, and drift histories, yet one serving process
// hosts them all. Each cohort id keys an independent triple
//
//   ModelRegistry + OnlineLearner (owning its SessionReplayBuffer)
//                 + OnlineUpdateDaemon
//
// so model versions, replay data, gate decisions, and update cadences
// never leak across surfaces: cohort A relearning an inverted rule cannot
// move cohort B's published weights by construction, because nothing but
// cohort B's own learner holds a path to cohort B's registry. Serving
// stacks bind per cohort the same way a single-tenant stack binds to one
// registry — construct `RnnPolicy(cohort.registry(), store)` and the
// existing begin_batch() pinning gives each cohort's snapshot groups
// exactly-one-version semantics, independently of every other cohort.
//
// Cohorts are created up front (or on tenant onboarding) and never
// removed; Cohort addresses are stable for the map's lifetime, so serving
// threads may cache `Cohort*` across calls.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "online/model_registry.hpp"
#include "online/online_learner.hpp"
#include "online/update_daemon.hpp"
#include "util/mutex.hpp"

namespace pp::online {

struct TenantSpec;   // tenant.hpp
class ServingStack;  // tenant.hpp

/// Per-cohort wiring: the learner config (which embeds the replay-buffer
/// config, e.g. reservoir admission for a heavy-tailed cohort) plus the
/// registry replica policy and the update daemon's schedule.
struct CohortConfig {
  OnlineLearnerConfig learner;
  /// Force int8 replica rebuilds on publish. Effective policy is the OR of
  /// this, learner.gate_int8, and the seed model already serving int8.
  bool quantize_replicas = false;
  /// Daemon schedule; set daemon.checkpoint_path per cohort (paths are not
  /// derived — two cohorts writing one file would corrupt both).
  OnlineUpdateDaemonConfig daemon;

  /// The effective replica policy of a cohort seeded with `initial`.
  bool quantize_replicas_for(const models::RnnModel& initial) const {
    return quantize_replicas || learner.gate_int8 ||
           initial.quantized_serving();
  }
};

class CohortRegistryMap {
 public:
  /// One tenant's isolated serve→learn→serve loop.
  class Cohort {
   public:
    Cohort(std::string id, std::shared_ptr<models::RnnModel> initial,
           const data::Dataset& dataset_meta, const CohortConfig& config);

    const std::string& id() const { return id_; }
    ModelRegistry& registry() { return registry_; }
    const ModelRegistry& registry() const { return registry_; }
    OnlineLearner& learner() { return learner_; }
    const OnlineLearner& learner() const { return learner_; }
    OnlineUpdateDaemon& daemon() { return daemon_; }
    const OnlineUpdateDaemon& daemon() const { return daemon_; }
    const SessionReplayBuffer& buffer() const { return learner_.buffer(); }

    /// Capture path — wire as this cohort's service completion listener.
    void observe(const serving::JoinedSession& joined) {
      learner_.observe(joined);
    }

   private:
    std::string id_;
    ModelRegistry registry_;
    OnlineLearner learner_;
    OnlineUpdateDaemon daemon_;
  };

  /// Out-of-line (like the destructor) so TUs that only see the forward
  /// declaration of ServingStack never instantiate stacks_'s teardown.
  CohortRegistryMap();
  CohortRegistryMap(const CohortRegistryMap&) = delete;
  CohortRegistryMap& operator=(const CohortRegistryMap&) = delete;
  /// Stops every cohort's daemon (joining their threads) before teardown.
  ~CohortRegistryMap();

  /// Registers a new cohort seeded with `initial` (version 1). Throws
  /// std::invalid_argument on a duplicate or empty id. The daemon is NOT
  /// started — call start_daemons() (or cohort.daemon().start()) once the
  /// serving wiring is in place.
  Cohort& create(std::string id, std::shared_ptr<models::RnnModel> initial,
                 const data::Dataset& dataset_meta,
                 const CohortConfig& config);

  /// One-call tenant onboarding (tenant.hpp): validates the whole spec
  /// (duplicate/empty id, KV geometry, int8 precision vs codec/replicas),
  /// creates the cohort, and wires a complete serving stack — KV store +
  /// hidden-state store + registry-backed policy + PrecomputeService with
  /// the completion listener feeding the cohort's learner (journal-first
  /// when spec.replay_journal_dir is set). Throws std::invalid_argument
  /// before any cohort state is created on a bad spec. The returned handle
  /// is address-stable for the map's lifetime.
  ServingStack& register_tenant(const TenantSpec& spec);

  /// nullptr when no stack was registered under the id (find() may still
  /// return a bare cohort created via create()).
  ServingStack* find_stack(std::string_view id);

  /// nullptr when the cohort id is unknown. The returned pointer stays
  /// valid for the map's lifetime.
  Cohort* find(std::string_view id);
  const Cohort* find(std::string_view id) const;
  /// Throws std::out_of_range on an unknown id.
  Cohort& at(std::string_view id);

  /// Routes one joined session to its cohort's learner; returns false
  /// (dropping the session) when the cohort id is unknown.
  bool observe(std::string_view id, const serving::JoinedSession& joined);

  std::size_t size() const;
  /// Sorted cohort ids.
  std::vector<std::string> ids() const;

  /// Starts / stops every cohort's update daemon. start_daemons skips
  /// cohorts already running; stop_daemons joins each background thread.
  void start_daemons();
  void stop_daemons();

 private:
  mutable Mutex mutex_;
  /// Ordered map: deterministic ids() iteration; unique_ptr keeps Cohort
  /// addresses stable across inserts.
  std::map<std::string, std::unique_ptr<Cohort>, std::less<>> cohorts_
      PP_GUARDED_BY(mutex_);
  /// Serving stacks from register_tenant(). Declared after cohorts_ so
  /// they destroy FIRST: a stack's policy/service reference its cohort's
  /// registry/learner, which must still be alive (daemons are stopped
  /// before either, in the destructor body).
  std::map<std::string, std::unique_ptr<ServingStack>, std::less<>> stacks_
      PP_GUARDED_BY(mutex_);
};

}  // namespace pp::online
