// The standard C bindings every host gets. host::Instance merges host
// extras over them; this header depends only on the runtime, so it sits
// below host/.
#pragma once

#include <span>
#include <string>

#include "runtime/cbind.hpp"
#include "runtime/value.hpp"

namespace ceu::env {

/// Standard C bindings every test/demo gets: `_printf`, `_assert`,
/// `_trace`, `_abs`, and a deterministic `_srand`/`_rand`/`_time`.
/// Trace-producing calls are routed to the engine's `on_trace` hook.
rt::CBindings make_standard_bindings();

/// Formats `fmt` with printf-style directives (%d %ld %u %x %c %s %%)
/// against Céu values. Shared by the console binding and the substrates.
std::string format_printf(const std::string& fmt, std::span<const rt::Value> args);

}  // namespace ceu::env
