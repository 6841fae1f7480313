// The one fan-out loop behind the replication runner and the chunked
// graph generators: indices handed out from an atomic counter to a set of
// short-lived threads, joined before returning.
#pragma once

#include <functional>

namespace radiocast::util {

/// Runs task(i) for every i in [0, count) on up to `threads` threads
/// (inline on the caller when that is <= 1). Each call runs inside a trace
/// span named `span`; spawned threads name themselves
/// "<thread_prefix>-<w>" while tracing. After the first exception no new
/// index is claimed, and that exception is rethrown once every thread has
/// joined. Which thread runs which index is scheduling noise, so callers
/// that write per-index outputs stay deterministic.
void parallel_for(int count, int threads, const char* span,
                  const char* thread_prefix,
                  const std::function<void(int)>& task);

}  // namespace radiocast::util
