#!/usr/bin/env python3
"""Generate link-time span wrappers for the hostbench binaries.

Scans the static libraries for the layer entry points named in SPANS,
and writes, for one binary variant:

  <out>/<variant>_wraps.S      one three-instruction stub per symbol,
                               `__wrap_<sym>`, that loads the symbol's id
                               and the address of `__real_<sym>` and jumps
                               to the shared trampoline (trampoline.S);
  <out>/<variant>_wraps.ld     the linker's `--wrap=<sym>` options;
  <out>/<variant>_symbols.cpp  the span and symbol tables spans.cpp reads,
                               with each symbol's real and wrapper address.

Symbols are found by their demangled qualified name, so a signature change
in the program still gets wrapped; a function that no longer exists just
reports zero calls.  The kernel entry points are required: without them
the benchmark cannot split set-up from the run, so a missing one is an
error.

  gen_wraps.py --variant plain|traced --nm NM --cxxfilt CXXFILT \
               --out DIR lib1.a lib2.a ...
"""

import argparse
import os
import subprocess
import sys

# (span, role, qualified names).  Role "kernel" marks the event-kernel run
# calls: they time the run and parent every other span, but their self
# time is not attributed to any layer.
KERNEL = ("sim.run", "kernel", [
    "digruber::sim::Simulation::run",
    "digruber::sim::Simulation::run_until",
])
SPANS = [
    ("gruber.candidates", "layer", [
        "digruber::gruber::GruberEngine::candidates",
    ]),
    ("gruber.select", "layer", [
        "digruber::gruber::TopKSelector::select",
        "digruber::gruber::RandomSelector::select",
        "digruber::gruber::WeightedSelector::select",
        "digruber::gruber::LeastUsedSelector::select",
        "digruber::gruber::RoundRobinSelector::select",
        "digruber::gruber::LeastRecentlyUsedSelector::select",
    ]),
    ("gruber.view_read", "layer", [
        "digruber::gruber::GridView::estimated_snapshot",
        "digruber::gruber::GridView::active_for_group",
        "digruber::gruber::GridView::active_for_user",
        "digruber::gruber::GridView::loads",
        "digruber::gruber::GridView::active_records",
    ]),
    ("gruber.view_write", "layer", [
        "digruber::gruber::GridView::record_dispatch",
        "digruber::gruber::GridView::merge_record",
    ]),
    ("gruber.view_digest", "layer", [
        "digruber::gruber::GridView::digest",
    ]),
    ("usla.eval", "layer", [
        "digruber::usla::UslaEvaluator::chain_headroom",
        "digruber::usla::UslaEvaluator::vo_headroom",
    ]),
    ("net.crc32c", "layer", [
        "digruber::net::wire::crc32c",
    ]),
    ("net.transport_send", "layer", [
        "digruber::net::SimTransport::send",
    ]),
    ("net.container_submit", "layer", [
        "digruber::net::ServiceContainer::submit",
        "digruber::net::ServiceContainer::submit_ex",
    ]),
    ("digruber.serve", "layer", [
        "digruber::net::RpcServer::on_packet",
    ]),
    ("sim.schedule", "layer", [
        "digruber::sim::Simulation::schedule_at",
        "digruber::sim::Simulation::schedule_after",
        "digruber::sim::Simulation::cancel",
    ]),
    ("durable.append", "layer", [
        "digruber::durable::wal_append",
        "digruber::durable::SimDisk::append",
    ]),
    ("durable.checkpoint", "layer", [
        "digruber::durable::SimDisk::write_checkpoint",
    ]),
    ("economy.admit", "layer", [
        "digruber::economy::CreditBank::admit",
    ]),
    ("economy.charge", "layer", [
        "digruber::economy::CreditBank::charge",
    ]),
]
VARIANTS = {"plain": [KERNEL], "traced": [KERNEL] + SPANS}
# Entry points reached only through a vtable.  The linker cannot redirect
# those calls, so spans.cpp patches the vtable slots at start-up instead.
VIRTUAL = {
    "digruber::gruber::TopKSelector::select",
    "digruber::gruber::RandomSelector::select",
    "digruber::gruber::WeightedSelector::select",
    "digruber::gruber::LeastUsedSelector::select",
    "digruber::gruber::RoundRobinSelector::select",
    "digruber::gruber::LeastRecentlyUsedSelector::select",
    "digruber::net::SimTransport::send",
    "digruber::net::RpcServer::on_packet",
}


def qualified_name(demangled):
    """`ns::Class::fn(args) const` -> `ns::Class::fn` (template args kept)."""
    depth = 0
    for i, ch in enumerate(demangled):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return demangled[:i]
    return demangled


def defined_text_symbols(nm, cxxfilt, libs):
    mangled = set()
    for lib in libs:
        out = subprocess.run([nm, "--defined-only", "-g", lib], check=True,
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in ("T", "W"):
                mangled.add(parts[2])
    mangled = sorted(mangled)
    demangled = subprocess.run([cxxfilt], input="\n".join(mangled) + "\n",
                               check=True, capture_output=True,
                               text=True).stdout.splitlines()
    if len(demangled) != len(mangled):
        sys.exit("gen_wraps: c++filt returned a different number of lines")
    return list(zip(mangled, demangled))


def cxx_string(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    ap.add_argument("--nm", default="nm")
    ap.add_argument("--cxxfilt", default="c++filt")
    ap.add_argument("--out", required=True)
    ap.add_argument("libs", nargs="+")
    args = ap.parse_args()

    by_name = {}
    for mangled, demangled in defined_text_symbols(args.nm, args.cxxfilt,
                                                   args.libs):
        by_name.setdefault(qualified_name(demangled), []).append(
            (mangled, demangled))

    # Every symbol gets an id; the C++ table keeps every span, matched or
    # not, so the report always lists the same span names.
    symbols = []  # (span, name, mangled, demangled)
    spans = []    # (span, role)
    for span, role, names in VARIANTS[args.variant]:
        spans.append((span, role))
        for name in names:
            matches = by_name.get(name, [])
            if not matches:
                if role == "kernel":
                    sys.exit(f"gen_wraps: kernel entry point {name} not found")
                print(f"gen_wraps: warning: {name} not found; "
                      f"span {span} reports no calls for it", file=sys.stderr)
            for mangled, demangled in matches:
                symbols.append((span, name, mangled, demangled))

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, args.variant)
    with open(f"{stem}_wraps.S", "w") as f:
        f.write("// Generated by gen_wraps.py; do not edit.\n\t.text\n")
        for i, (_, _, sym, _) in enumerate(symbols):
            f.write(f"\t.globl __wrap_{sym}\n"
                    f"\t.type __wrap_{sym}, @function\n"
                    f"\t.p2align 4\n"
                    f"__wrap_{sym}:\n"
                    f"\tmovl ${i}, %r11d\n"
                    f"\tleaq __real_{sym}(%rip), %r10\n"
                    f"\tjmp hb_enter_tramp\n"
                    f"\t.size __wrap_{sym}, .-__wrap_{sym}\n")
        f.write('\t.section .note.GNU-stack,"",@progbits\n')
    with open(f"{stem}_wraps.ld", "w") as f:
        for _, _, sym, _ in symbols:
            f.write(f"--wrap={sym}\n")
    span_index = {span: i for i, (span, _) in enumerate(spans)}
    with open(f"{stem}_symbols.cpp", "w") as f:
        f.write("// Generated by gen_wraps.py; do not edit.\n"
                '#include "spans.hpp"\n\n')
        for _, _, sym, _ in symbols:
            f.write(f'extern "C" void __real_{sym}();\n'
                    f'extern "C" void __wrap_{sym}();\n')
        f.write("\nnamespace hostbench {\n\nconst SpanDef kSpans[] = {\n")
        for span, role in spans:
            f.write(f"    {{{cxx_string(span)}, {str(role == 'kernel').lower()}}},\n")
        f.write(f"}};\nconst std::size_t kSpanCount = {len(spans)};\n\n"
                "const SymbolDef kSymbols[] = {\n")
        for span, name, mangled, demangled in symbols:
            f.write(f"    {{{span_index[span]}, {cxx_string(demangled)},\n"
                    f"     {str(name in VIRTUAL).lower()}, &__real_{mangled}, "
                    f"&__wrap_{mangled}}},\n")
        f.write(f"}};\nconst std::size_t kSymbolCount = {len(symbols)};\n\n"
                "}  // namespace hostbench\n")

if __name__ == "__main__":
    main()
