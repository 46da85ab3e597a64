#include "spans.hpp"

#include <link.h>
#include <sys/mman.h>
#include <unistd.h>
#include <x86intrin.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <vector>

namespace hostbench {
namespace {

using Clock = std::chrono::steady_clock;

// Log-linear histogram of call durations in TSC ticks: 32 sub-buckets per
// power of two, so a quantile is within ~3% of the true value.
constexpr int kSubBits = 5;
constexpr std::size_t kBuckets = (64 - kSubBits + 1) << kSubBits;

std::size_t bucket_of(std::uint64_t ticks) {
  if (ticks < (1u << kSubBits)) return std::size_t(ticks);
  const int msb = 63 - __builtin_clzll(ticks);
  const int shift = msb - kSubBits;
  return (std::size_t(shift + 1) << kSubBits) +
         std::size_t((ticks >> shift) & ((1u << kSubBits) - 1));
}

double bucket_mid(std::size_t bucket) {
  if (bucket < (1u << kSubBits)) return double(bucket);
  const int shift = int(bucket >> kSubBits) - 1;
  const std::uint64_t sub = bucket & ((1u << kSubBits) - 1);
  const double lo = double((std::uint64_t(1) << kSubBits | sub) << shift);
  return lo + double(std::uint64_t(1) << shift) / 2.0;
}

struct SpanStats {
  std::uint64_t calls = 0;
  std::uint64_t self_ticks = 0;
  std::uint64_t incl_ticks = 0;
  std::vector<std::uint64_t> histogram = std::vector<std::uint64_t>(kBuckets);
};

struct Frame {
  std::uint32_t symbol;
  std::uint64_t return_address;
  std::uint64_t start;
  std::uint64_t child_ticks;
};

constexpr std::size_t kMaxDepth = 4096;

struct Recorder {
  Clock::time_point clock_origin = Clock::now();
  std::uint64_t tsc_origin = __rdtsc();
  double first_kernel_s = -1.0;
  std::vector<SpanStats> spans = std::vector<SpanStats>(kSpanCount);
  std::vector<std::uint64_t> symbol_calls = std::vector<std::uint64_t>(kSymbolCount);
  // nested[parent * kSymbolCount + child]: direct child calls.
  std::vector<std::uint64_t> nested =
      std::vector<std::uint64_t>(kSymbolCount * kSymbolCount);
  std::vector<EnterHook> enter_hooks = std::vector<EnterHook>(kSymbolCount);
  std::vector<ExitHook> exit_hooks = std::vector<ExitHook>(kSymbolCount);
  std::array<Frame, kMaxDepth> stack{};
  std::size_t depth = 0;

  double seconds_since_origin() const {
    return std::chrono::duration<double>(Clock::now() - clock_origin).count();
  }
  // Seconds per TSC tick, calibrated against the steady clock over the
  // whole recording.
  double seconds_per_tick() const {
    const double ticks = double(__rdtsc() - tsc_origin);
    return ticks > 0 ? seconds_since_origin() / ticks : 0.0;
  }
};

struct Mapping {
  std::uintptr_t lo, hi;
  int prot;
};

// The process's current mappings, so a protection change can be undone
// exactly even on a page another segment shares.
std::vector<Mapping> read_mappings() {
  std::vector<Mapping> out;
  FILE* maps = std::fopen("/proc/self/maps", "r");
  if (!maps) return out;
  unsigned long lo = 0, hi = 0;
  char perms[5] = {};
  while (std::fscanf(maps, "%lx-%lx %4s%*[^\n]", &lo, &hi, perms) == 3) {
    const int prot = (perms[0] == 'r' ? PROT_READ : 0) |
                     (perms[1] == 'w' ? PROT_WRITE : 0) |
                     (perms[2] == 'x' ? PROT_EXEC : 0);
    out.push_back({lo, hi, prot});
  }
  std::fclose(maps);
  return out;
}

void protect(const std::vector<Mapping>& maps, std::uintptr_t lo,
             std::uintptr_t hi, bool writable) {
  for (const Mapping& m : maps) {
    const std::uintptr_t a = std::max(lo, m.lo), b = std::min(hi, m.hi);
    if (a >= b) continue;
    if (mprotect(reinterpret_cast<void*>(a), b - a,
                 m.prot | (writable ? PROT_WRITE : 0)) != 0) {
      std::perror("hostbench: mprotect");
      std::abort();
    }
  }
}

// Point every vtable slot that holds a virtual entry point at its wrapper.
// Vtables sit in the executable's RELRO segment (or, without PIE, in a
// read-only segment); the symbol table itself is skipped.
int patch_vtables(dl_phdr_info* info, std::size_t, void*) {
  const auto page = std::uintptr_t(sysconf(_SC_PAGESIZE));
  const auto skip_lo = std::uintptr_t(&kSymbols[0]);
  const auto skip_hi = std::uintptr_t(&kSymbols[kSymbolCount]);
  const std::vector<Mapping> maps = read_mappings();
  std::vector<std::size_t> patched(kSymbolCount);
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    const bool read_only_data = ph.p_type == PT_LOAD && ph.p_flags == PF_R;
    if (ph.p_type != PT_GNU_RELRO && !read_only_data) continue;
    const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    const std::uintptr_t hi = lo + ph.p_memsz;
    const std::uintptr_t page_lo = lo & ~(page - 1);
    const std::uintptr_t page_hi = (hi + page - 1) & ~(page - 1);
    protect(maps, page_lo, page_hi, true);
    for (std::uintptr_t a = (lo + 7) & ~std::uintptr_t(7); a + 8 <= hi; a += 8) {
      if (a >= skip_lo && a < skip_hi) continue;
      auto* slot = reinterpret_cast<void (**)()>(a);
      for (std::size_t s = 0; s < kSymbolCount; ++s) {
        if (kSymbols[s].virtual_call && *slot == kSymbols[s].real) {
          *slot = kSymbols[s].wrapper;
          ++patched[s];
        }
      }
    }
    protect(maps, page_lo, page_hi, false);
  }
  for (std::size_t s = 0; s < kSymbolCount; ++s) {
    if (kSymbols[s].virtual_call && patched[s] == 0) {
      std::fprintf(stderr, "hostbench: no vtable slot found for %s\n",
                   kSymbols[s].demangled);
    }
  }
  return 1;  // the executable comes first; stop there
}

Recorder& recorder() {
  static Recorder r = [] {
    dl_iterate_phdr(patch_vtables, nullptr);
    return Recorder{};
  }();
  return r;
}

// Constructed during static initialisation, before any wrapped call.
[[maybe_unused]] const Recorder& kEagerRecorder = recorder();

template <class Hook>
std::size_t attach(std::vector<Hook>& hooks, const std::string& demangled,
                   Hook hook) {
  std::size_t found = 0;
  for (std::size_t i = 0; i < kSymbolCount; ++i) {
    if (demangled == kSymbols[i].demangled) {
      hooks[i] = hook;
      ++found;
    }
  }
  return found;
}

bool starts_with(const char* s, const std::string& prefix) {
  return std::string_view(s).substr(0, prefix.size()) == prefix;
}

}  // namespace

std::size_t on_enter(const std::string& demangled, EnterHook hook) {
  return attach(recorder().enter_hooks, demangled, hook);
}

std::size_t on_exit(const std::string& demangled, ExitHook hook) {
  return attach(recorder().exit_hooks, demangled, hook);
}

double first_kernel_call_s() { return recorder().first_kernel_s; }

double now_s() { return recorder().seconds_since_origin(); }

std::uint64_t nested_calls(const std::string& parent, const std::string& child) {
  const Recorder& r = recorder();
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < kSymbolCount; ++p) {
    if (!starts_with(kSymbols[p].demangled, parent)) continue;
    for (std::size_t c = 0; c < kSymbolCount; ++c) {
      if (starts_with(kSymbols[c].demangled, child)) {
        total += r.nested[p * kSymbolCount + c];
      }
    }
  }
  return total;
}

std::uint64_t symbol_calls(const std::string& prefix) {
  const Recorder& r = recorder();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kSymbolCount; ++i) {
    if (starts_with(kSymbols[i].demangled, prefix)) total += r.symbol_calls[i];
  }
  return total;
}

std::string spans_json() {
  const Recorder& r = recorder();
  const double spt = r.seconds_per_tick();
  std::ostringstream os;
  os.precision(9);
  os << "{";
  for (std::size_t s = 0; s < kSpanCount; ++s) {
    const SpanStats& st = r.spans[s];
    auto quantile_us = [&](double q) {
      if (st.calls == 0) return 0.0;
      const auto rank = std::uint64_t(q * double(st.calls - 1)) + 1;
      std::uint64_t seen = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        seen += st.histogram[b];
        if (seen >= rank) return bucket_mid(b) * spt * 1e6;
      }
      return 0.0;
    };
    os << (s ? ", " : "") << '"' << kSpans[s].name << "\": {\"calls\": "
       << st.calls << ", \"self_s\": " << double(st.self_ticks) * spt
       << ", \"incl_s\": " << double(st.incl_ticks) * spt
       << ", \"call_us_p50\": " << quantile_us(0.50)
       << ", \"call_us_p99\": " << quantile_us(0.99)
       << ", \"kernel\": " << (kSpans[s].kernel ? "true" : "false") << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace hostbench

using hostbench::recorder;

extern "C" void hb_enter(std::uint32_t symbol, std::uint64_t return_address,
                         const std::uint64_t* regs) noexcept {
  auto& r = recorder();
  if (r.depth == hostbench::kMaxDepth) {
    std::fputs("hostbench: span stack overflow\n", stderr);
    std::abort();
  }
  if (r.first_kernel_s < 0 && hostbench::kSpans[hostbench::kSymbols[symbol].span].kernel) {
    r.first_kernel_s = r.seconds_since_origin();
  }
  if (auto hook = r.enter_hooks[symbol]) hook(regs);
  r.stack[r.depth++] = {symbol, return_address, __rdtsc(), 0};
}

extern "C" std::uint64_t hb_exit(std::uint64_t rax) noexcept {
  const std::uint64_t end = __rdtsc();
  auto& r = recorder();
  const hostbench::Frame frame = r.stack[--r.depth];
  const std::uint64_t ticks = end - frame.start;
  auto& span = r.spans[hostbench::kSymbols[frame.symbol].span];
  ++span.calls;
  span.self_ticks += ticks - frame.child_ticks;
  span.incl_ticks += ticks;
  ++span.histogram[hostbench::bucket_of(ticks)];
  ++r.symbol_calls[frame.symbol];
  if (r.depth > 0) {
    hostbench::Frame& parent = r.stack[r.depth - 1];
    parent.child_ticks += ticks;
    ++r.nested[parent.symbol * hostbench::kSymbolCount + frame.symbol];
  }
  if (auto hook = r.exit_hooks[frame.symbol]) hook(rax);
  return frame.return_address;
}
