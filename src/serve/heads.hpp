// Per-tenant head registry: thousands of tiny linear-probe heads over one
// shared frozen encoder.
//
// The linear-probe protocol (train/linear_probe.hpp) produces a single
// nn::Linear per downstream task — a few KB of weights against a shared
// multi-GB encoder, which is why one server can carry every tenant. A
// head is registered programmatically (put) or loaded from a probe-head
// checkpoint written with ckpt::save_checkpoint (load): the shard's
// "probe.head.weight" record names the [classes, width] shape, so the
// registry reconstructs the layer without out-of-band metadata.
//
// Hot swap: put()/load() on a registered tenant atomically replaces the
// entry. Lookups hand out the shared_ptr, so a batch that resolved the
// old head before the swap finishes on it — the same epoch/refcount
// discipline the encoder swap uses, per entry. Only the server's batch
// worker may call forward() on a resolved head (nn layers cache
// activations and are not reentrant).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/linear.hpp"
#include "util/common.hpp"

namespace geofm::serve {

/// One tenant's head plus provenance. `version` counts swaps for this
/// tenant (1 = first registration).
struct TenantHead {
  std::unique_ptr<nn::Linear> head;
  i64 version = 0;
  std::string source;  // checkpoint path when loaded from disk
};

class HeadRegistry {
 public:
  /// Registers or hot-swaps `tenant`'s head. `head` must map the served
  /// encoder width to the tenant's class count.
  void put(const std::string& tenant, std::unique_ptr<nn::Linear> head,
           std::string source = "");

  /// Loads a probe-head checkpoint (ckpt::save_checkpoint of the probe's
  /// nn::Linear, parameters "probe.head.weight"/"probe.head.bias") and
  /// registers it. `expect_width` != 0 verifies the head matches the
  /// served encoder width. Throws geofm::Error on a malformed file or a
  /// width mismatch; the previous head (if any) stays registered.
  void load(const std::string& tenant, const std::string& path,
            i64 expect_width = 0);

  /// The tenant's current head, or nullptr. Callers keep the shared_ptr
  /// for the duration of use; a concurrent swap does not invalidate it.
  std::shared_ptr<TenantHead> find(const std::string& tenant) const;

  /// Removes the tenant. Returns false if it was not registered.
  bool remove(const std::string& tenant);

  i64 size() const;
  std::vector<std::string> tenants() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<TenantHead>> heads_;
  std::map<std::string, i64> versions_;
};

}  // namespace geofm::serve
