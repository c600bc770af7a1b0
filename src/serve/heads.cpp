#include "serve/heads.hpp"

#include "ckpt/format.hpp"
#include "obs/metrics.hpp"
#include "ckpt/checkpoint.hpp"
#include "util/log.hpp"

namespace geofm::serve {

namespace {

void note_swap(const std::string& tenant, i64 version, i64 registry_size) {
  auto& reg = obs::MetricsRegistry::instance();
  static auto& swaps = reg.counter("serve.head_swaps");
  static auto& tenants = reg.gauge("serve.tenants");
  swaps.add(1);
  tenants.set(static_cast<double>(registry_size));
  GEOFM_DEBUG("serve: head for tenant '" << tenant << "' now at version "
                                         << version);
}

}  // namespace

void HeadRegistry::put(const std::string& tenant,
                       std::unique_ptr<nn::Linear> head, std::string source) {
  GEOFM_CHECK(head != nullptr, "HeadRegistry::put: null head");
  auto entry = std::make_shared<TenantHead>();
  entry->head = std::move(head);
  entry->source = std::move(source);
  i64 version = 0;
  i64 size = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    version = ++versions_[tenant];
    entry->version = version;
    heads_[tenant] = std::move(entry);
    size = static_cast<i64>(heads_.size());
  }
  note_swap(tenant, version, size);
}

void HeadRegistry::load(const std::string& tenant, const std::string& path,
                        i64 expect_width) {
  // The weight record's shape is the head's full description:
  // [classes, width] in nn::Linear's (PyTorch) layout, bias present iff
  // the probe saved one.
  const ckpt::format::ShardHeader header =
      ckpt::format::read_shard_header(path);
  const ckpt::format::ShardIndexEntry* weight = nullptr;
  bool has_bias = false;
  for (const auto& rec : header.records) {
    if (rec.name == "probe.head.weight") weight = &rec;
    if (rec.name == "probe.head.bias") has_bias = true;
  }
  if (weight == nullptr || weight->shape.size() != 2) {
    throw Error("not a probe-head checkpoint (no 2-D probe.head.weight): " +
                path);
  }
  const i64 classes = weight->shape[0];
  const i64 width = weight->shape[1];
  if (expect_width != 0 && width != expect_width) {
    throw Error("probe head " + path + " has width " + std::to_string(width) +
                ", served encoder width is " + std::to_string(expect_width));
  }
  // Freshly initialized weights are overwritten in full by the load.
  Rng rng(0);
  auto head =
      std::make_unique<nn::Linear>("probe.head", width, classes, rng, has_bias);
  ckpt::load_checkpoint(*head, path);
  put(tenant, std::move(head), path);
}

std::shared_ptr<TenantHead> HeadRegistry::find(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = heads_.find(tenant);
  return it == heads_.end() ? nullptr : it->second;
}

bool HeadRegistry::remove(const std::string& tenant) {
  i64 size = 0;
  bool removed = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    removed = heads_.erase(tenant) > 0;
    size = static_cast<i64>(heads_.size());
  }
  if (removed) {
    static auto& tenants =
        obs::MetricsRegistry::instance().gauge("serve.tenants");
    tenants.set(static_cast<double>(size));
  }
  return removed;
}

i64 HeadRegistry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<i64>(heads_.size());
}

std::vector<std::string> HeadRegistry::tenants() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(heads_.size());
  for (const auto& [name, entry] : heads_) out.push_back(name);
  return out;
}

}  // namespace geofm::serve
