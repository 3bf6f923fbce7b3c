#include "core/engine_registry.h"

#include <map>
#include <utility>

#include "core/linearized_engine.h"
#include "core/sparse_engine.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace simrankpp {

namespace {

// The registry state. Guarded by a mutex so engines can be registered and
// created from any thread; heterogeneous lookup (std::less<>) lets
// string_view callers avoid a temporary string.
struct Registry {
  Mutex mu;
  std::map<std::string, SimRankEngineFactory, std::less<>> factories
      SRPP_GUARDED_BY(mu);
};

// Built-ins are seeded when the registry is first touched, so a
// translation unit registering its own engine during static init cannot
// race a half-constructed map.
Registry& GlobalRegistry() {
  static Registry* registry = [] {
    // srpp:allow(naked-new): intentionally leaked static-init singleton
    // — never destroyed, so engine registration in other TUs' static
    // destructors can never touch a dead registry.
    auto* r = new Registry();
    // No other thread can reach `r` before this lambda returns, but the
    // thread-safety analysis (rightly) cannot prove that; the lock is
    // one-time and keeps the seeding inside the annotated discipline.
    MutexLock lock(&r->mu);
    r->factories.emplace(
        "linearized", [](const SimRankOptions& options)
                          -> Result<std::unique_ptr<SimRankEngine>> {
          return std::unique_ptr<SimRankEngine>(
              std::make_unique<LinearizedSimRankEngine>(options));
        });
    r->factories.emplace(
        "sparse", [](const SimRankOptions& options)
                      -> Result<std::unique_ptr<SimRankEngine>> {
          return std::unique_ptr<SimRankEngine>(
              std::make_unique<SparseSimRankEngine>(options));
        });
    return r;
  }();
  return *registry;
}

}  // namespace

Status RegisterSimRankEngine(std::string name, SimRankEngineFactory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("engine name must be non-empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument(
        StringPrintf("engine \"%s\": factory must be non-null", name.c_str()));
  }
  Registry& registry = GlobalRegistry();
  MutexLock lock(&registry.mu);
  auto [it, inserted] =
      registry.factories.emplace(std::move(name), std::move(factory));
  if (!inserted) {
    return Status::AlreadyExists(StringPrintf(
        "engine \"%s\" is already registered", it->first.c_str()));
  }
  return Status::OK();
}

Result<std::unique_ptr<SimRankEngine>> CreateSimRankEngine(
    std::string_view name, const SimRankOptions& options) {
  SRPP_RETURN_NOT_OK(options.Validate());
  SimRankEngineFactory factory;
  {
    Registry& registry = GlobalRegistry();
    MutexLock lock(&registry.mu);
    auto it = registry.factories.find(name);
    if (it == registry.factories.end()) {
      std::string known;
      for (const auto& [known_name, unused] : registry.factories) {
        (void)unused;
        if (!known.empty()) known += ", ";
        known += known_name;
      }
      return Status::NotFound(
          StringPrintf("unknown engine \"%.*s\" (registered: %s)",
                       static_cast<int>(name.size()), name.data(),
                       known.c_str()));
    }
    factory = it->second;  // copy: invoke outside the lock
  }
  return factory(options);
}

}  // namespace simrankpp
