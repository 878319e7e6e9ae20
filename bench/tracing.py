"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of the solver modules with
wrappers, in every ``meanfield_annealer`` module namespace that holds
them, so calls made through a name another module imported (for example
``spinwave.global_minimize`` or ``cli.global_saddle``) are seen too.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A span is (name, start, end, parent index); spans stay in memory and the
runner writes them out when the run ends.  A layer's self time is its span durations
minus the time covered by its direct child spans.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name); functions in COUNT_ONLY get a call
# counter but no span, because they run tens of thousands of times per
# pass and their cost is already inside the parent's self time.  The
# operators the "ed.build" functions return get their matvec spanned as
# "ed.matvec".
SPANNED = [
    ("cli", "run", "cli.run"),
    ("cli", "write_csv", "cli.write_csv"),
    ("classical", "minimize", "classical.minimize"),
    ("classical", "global_minimize", "classical.global_minimize"),
    ("transitions", "analyze", "transitions.analyze"),
    ("transitions", "branch_sweep", "transitions.branch_sweep"),
    ("spinwave", "fluctuation_matrix", "spinwave.fluctuation_matrix"),
    ("spinwave", "excitation_gaps", "spinwave.excitation_gaps"),
    ("spinwave", "gap_profile", "spinwave.gap_profile"),
    ("spinwave", "min_gap", "spinwave.min_gap"),
    ("spinwave", "optimize_catalyst", "spinwave.optimize_catalyst"),
    ("saddle", "solve_saddle", "saddle.solve_saddle"),
    ("saddle", "global_saddle", "saddle.global_saddle"),
    ("ed", "build_dense_sector_operator", "ed.build"),
    ("ed", "build_sparse_full_hamiltonian", "ed.build"),
    ("ed", "ed_solve", "ed.ed_solve"),
    ("ed", "dense_ed", "ed.dense_ed"),
    ("ed", "sparse_ed", "ed.sparse_ed"),
    ("eigensolvers", "jacobi_eigh", "eigensolvers.jacobi_eigh"),
    ("eigensolvers", "eig_general", "eigensolvers.eig_general"),
    ("eigensolvers", "null_basis", "eigensolvers.null_basis"),
    ("eigensolvers", "lanczos_lowest", "eigensolvers.lanczos_lowest"),
    ("eigensolvers", "tridiag_lowest", "eigensolvers.tridiag_lowest"),
    ("eigensolvers", "tridiag_eigvecs", "eigensolvers.tridiag_eigvecs"),
]
COUNT_ONLY = [
    ("saddle", "build_effective_hamiltonian", "saddle.build_effective_hamiltonian"),
    ("saddle", "ground_block", "saddle.ground_block"),
]


class Tracer:
    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self):
        """Drop recorded spans and counts; installed wrappers stay."""
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_time: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child_time.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[idx]

    def span(self, fn, name, label=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = f"{name}@{label(*args, **kwargs)}" if label else name
            idx = tracer._open(full)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                tracer.counts[f"{name}.raised.{type(err).__name__}"] += 1
                raise
            finally:
                tracer._close(idx)
            return tracer._after(name, out)

        return wrapper

    def counter(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name, out):
        if name == "saddle.solve_saddle" and not out.converged:
            self.counts["saddle.solve_saddle.unconverged"] += 1
        elif name == "ed.build":
            out = dataclasses.replace(out, matvec=self.span(out.matvec, "ed.matvec"))
        return out

    def _count_matvecs(self, lanczos):
        """Count the matvecs a Lanczos call makes through its argument."""
        tracer = self

        @functools.wraps(lanczos)
        def wrapper(matvec, *args, **kwargs):
            def counted(v):
                tracer.counts["eigensolvers.lanczos_lowest.matvecs"] += 1
                return matvec(v)

            return lanczos(counted, *args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        plan = [(mod, fn, name, True) for mod, fn, name in SPANNED]
        plan += [(mod, fn, name, False) for mod, fn, name in COUNT_ONLY]
        for mod, *_ in plan:
            importlib.import_module(f"meanfield_annealer.{mod}")
        modules = [m for n, m in sys.modules.items()
                   if n == "meanfield_annealer" or n.startswith("meanfield_annealer.")]
        for mod, fn_name, name, spanned in plan:
            original = getattr(sys.modules[f"meanfield_annealer.{mod}"], fn_name)
            if spanned:
                wrapped = self.span(original, name, _LABELS.get(name))
            else:
                wrapped = self.counter(original, name)
            if fn_name == "lanczos_lowest":
                wrapped = self._count_matvecs(wrapped)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """Per span name: (calls, total self time in seconds)."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += (self.ends[i] - self.starts[i]) - self.child_time[i]
        return calls, self_s

    def durations(self, name):
        return [self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name]

    def spans(self):
        return [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]


def _size_label(spec, s, N, *args, **kwargs):
    return f"N={int(N)}"


_LABELS = {"ed.dense_ed": _size_label, "ed.sparse_ed": _size_label}
