// Compile-to-nothing-when-off hook layer for the observability subsystem,
// mirroring src/dct/hooks.h: built by default (CMake option SEMLOCK_OBS),
// and with the option OFF every macro expands to ((void)0) so production
// hot paths contain no obs code at all — CI verifies the OFF build has zero
// semlock::obs symbols.
//
// With the option ON the macros are runtime-gated on the process-wide
// switch (SEMLOCK_TRACE / obs::ScopedTraceEnable): one relaxed atomic load
// and a predictable branch when tracing is off. The lock mechanism does not
// use these macros — it gates on its ModeTable's trace_events flag directly
// (see lock_mechanism.cpp) so per-table overrides work without the global
// switch.
#pragma once

#if defined(SEMLOCK_OBS)

#include "obs/trace.h"

// Process-level event (no owning LockMechanism): transaction begin, end and
// epilogue, harness pass marks. `type` is an EventType enumerator name.
#define SEMLOCK_OBS_EVENT(type, instance, mode)                       \
  do {                                                                \
    if (::semlock::obs::runtime_enabled())                            \
      ::semlock::obs::emit(::semlock::obs::EventType::type,           \
                           (instance), (mode));                       \
  } while (0)

// Transaction nesting depth: one thread-local increment or decrement, cheap
// enough to run unconditionally. The id itself is assigned on first use
// (obs::current_txn), so per-table trace overrides still see txn ids when
// the global switch is off, and an untraced transaction consumes none.
#define SEMLOCK_OBS_TXN_BEGIN() ::semlock::obs::txn_begin()
#define SEMLOCK_OBS_TXN_END() ::semlock::obs::txn_end()

#else  // !SEMLOCK_OBS

#define SEMLOCK_OBS_EVENT(type, instance, mode) ((void)0)
#define SEMLOCK_OBS_TXN_BEGIN() ((void)0)
#define SEMLOCK_OBS_TXN_END() ((void)0)

#endif  // SEMLOCK_OBS
