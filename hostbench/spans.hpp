// Host-clock span recorder behind the link-time wrappers (trampoline.S).
//
// Every wrapped entry point pushes a frame on a shadow stack when it is
// entered and pops it when it returns.  A span's self time is its
// duration minus the durations of wrapped calls made inside it.  The
// recorder is single-threaded, like the simulator it measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace hostbench {

struct SpanDef {
  const char* name;
  bool kernel;  // event-kernel run call: times the run, attributed to no layer
};

struct SymbolDef {
  std::size_t span;  // index into kSpans
  const char* demangled;
  bool virtual_call;  // reached through a vtable: its slots are patched
  void (*real)();
  void (*wrapper)();
};

// Generated per binary by gen_wraps.py.
extern const SpanDef kSpans[];
extern const std::size_t kSpanCount;
extern const SymbolDef kSymbols[];
extern const std::size_t kSymbolCount;

/// Called on entry with the saved argument registers rdi, rsi, rdx, rcx,
/// r8, r9 (in that order), and on return with rax.
using EnterHook = void (*)(const std::uint64_t* regs);
using ExitHook = void (*)(std::uint64_t rax);

/// Attach a hook to every wrapped symbol whose demangled name is exactly
/// `demangled`; returns how many were found.
std::size_t on_enter(const std::string& demangled, EnterHook hook);
std::size_t on_exit(const std::string& demangled, ExitHook hook);

/// Host seconds between process start-up of the recorder and the first
/// kernel call (a negative value: no kernel call was seen).
double first_kernel_call_s();

/// Seconds since the recorder started, on the same clock.
double now_s();

/// Calls of symbols whose demangled name starts with `child`, made
/// directly inside a call of a symbol whose name starts with `parent`.
std::uint64_t nested_calls(const std::string& parent, const std::string& child);

/// Calls of every symbol whose demangled name starts with `prefix`.
std::uint64_t symbol_calls(const std::string& prefix);

/// JSON object: span name -> {calls, self_s, incl_s, call_us_p50,
/// call_us_p99}.  Kernel spans carry "kernel": true.
std::string spans_json();

}  // namespace hostbench
