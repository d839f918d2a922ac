#include "storage/kv_factory.hpp"

#include <stdexcept>

namespace pp::storage {

void validate(const KvBackendSpec& spec) {
  switch (spec.kind) {
    case KvBackendKind::kLocal:
      return;
    case KvBackendKind::kSharded:
      if (spec.shards == 0) {
        throw std::invalid_argument(
            "KvBackendSpec: sharded backend needs shards > 0");
      }
      return;
    case KvBackendKind::kDurable:
      if (spec.durable.dir.empty()) {
        throw std::invalid_argument(
            "KvBackendSpec: durable backend needs a non-empty dir");
      }
      if (spec.durable.segment_bytes == 0) {
        throw std::invalid_argument(
            "KvBackendSpec: durable segment_bytes must be > 0");
      }
      if (spec.durable.compact_dead_ratio < 0.0 ||
          spec.durable.compact_dead_ratio > 1.0) {
        throw std::invalid_argument(
            "KvBackendSpec: compact_dead_ratio must be in [0, 1]");
      }
      return;
  }
  throw std::invalid_argument("KvBackendSpec: unknown backend kind");
}

std::unique_ptr<serving::KvStore> make_kv_store(const KvBackendSpec& spec) {
  validate(spec);
  switch (spec.kind) {
    case KvBackendKind::kLocal:
      return std::make_unique<serving::LocalKvStore>();
    case KvBackendKind::kSharded:
      return std::make_unique<serving::ShardedKvStore>(spec.shards);
    case KvBackendKind::kDurable:
      return std::make_unique<DurableKvStore>(spec.durable);
  }
  throw std::invalid_argument("KvBackendSpec: unknown backend kind");
}

}  // namespace pp::storage
