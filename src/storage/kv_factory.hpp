// KV backend selection by spec instead of by concrete type: call sites
// (tenant registration, benches, examples) name `local | sharded |
// durable(dir)` in a KvBackendSpec and get a serving::KvStore through one
// factory. validate() runs the full geometry/config check up front so a
// bad spec fails at registration time with a precise message — not at
// first use deep inside a serving thread.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "serving/kv_store.hpp"
#include "storage/durable_kv_store.hpp"

namespace pp::storage {

enum class KvBackendKind {
  kLocal,    // single-map LocalKvStore
  kSharded,  // ShardedKvStore over `shards` shards
  kDurable,  // crash-safe segment-log DurableKvStore in `durable.dir`
};

struct KvBackendSpec {
  KvBackendKind kind = KvBackendKind::kLocal;
  std::size_t shards = 16;   // kSharded only
  DurableKvConfig durable;   // kDurable only

  static KvBackendSpec local() { return {}; }
  static KvBackendSpec sharded(std::size_t shards) {
    KvBackendSpec spec;
    spec.kind = KvBackendKind::kSharded;
    spec.shards = shards;
    return spec;
  }
  static KvBackendSpec durable_dir(std::string dir) {
    KvBackendSpec spec;
    spec.kind = KvBackendKind::kDurable;
    spec.durable.dir = std::move(dir);
    return spec;
  }
};

/// Throws std::invalid_argument with a precise message on a bad spec:
/// zero shards, empty durable dir, zero segment size, or a compaction
/// ratio outside [0, 1].
void validate(const KvBackendSpec& spec);

/// Builds the selected backend (validates first). The durable backend
/// opens (and recovers) the segment log in spec.durable.dir.
std::unique_ptr<serving::KvStore> make_kv_store(const KvBackendSpec& spec);

}  // namespace pp::storage
