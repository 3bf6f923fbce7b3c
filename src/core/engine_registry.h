/// @file engine_registry.h
/// @brief String-keyed registry of SimRank engine factories.
///
/// The registry is the open seam through which every engine reaches the
/// serving layer: built-ins ("sparse", "linearized") are registered on
/// first use, and new implementations (a test stub, say) plug in with
/// RegisterSimRankEngine — no edits to core headers, no closed enum to
/// extend. All API boundaries that pick an engine (the CLI, the
/// experiment runner, RewriteServiceBuilder) select by name through this
/// registry.
#ifndef SIMRANKPP_CORE_ENGINE_REGISTRY_H_
#define SIMRANKPP_CORE_ENGINE_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "core/simrank_engine.h"

namespace simrankpp {

/// \brief Builds an engine from validated options. Factories must be
/// thread-safe and stateless (they may be invoked concurrently).
using SimRankEngineFactory =
    std::function<Result<std::unique_ptr<SimRankEngine>>(
        const SimRankOptions& options)>;

/// \brief Registers a factory under `name`. Names are case-sensitive,
/// non-empty, and unique; AlreadyExists when the name is taken.
/// Thread-safe.
Status RegisterSimRankEngine(std::string name, SimRankEngineFactory factory);

/// \brief Instantiates the engine registered under `name` after validating
/// `options`. NotFound (listing the registered names) for an unknown
/// engine; InvalidArgument for invalid options. Thread-safe.
Result<std::unique_ptr<SimRankEngine>> CreateSimRankEngine(
    std::string_view name, const SimRankOptions& options);

}  // namespace simrankpp

#endif  // SIMRANKPP_CORE_ENGINE_REGISTRY_H_
