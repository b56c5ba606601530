"""Per-layer tracing from outside the program.

The tracer swaps module attributes that the solvers look up at call time
for wrappers that count calls and measure self time, and puts the
originals back when the ``with`` block ends.  Nothing in ``src/`` is
edited.  A layer's self time is its span's duration minus the part its
traced children cover; the children's spans are accumulated on a stack,
so the self times of all layers of one pass add up to the duration of its
outermost spans.

A hook whose target no longer exists (renamed or removed by a later
change) is skipped and listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import time

# Computed compulsory traffic of the kernel contract: each input vector
# read once and each output vector written once, 8-byte floats.  Cache
# misses and numpy temporaries are not counted.
KERNEL_VECTORS = {"quad_step": 6, "quad_gradient": 4, "quad_value": 3}

QUAD_BRANCHES = ("sd", "bb1", "fallback", "short_bb2", "short_new",
                 "short_bbq")
UNC_BRANCHES = ("init", "bb1", "short_bb2", "short_new", "short_bbq",
                "short_bb2only", "nocurv")

# (layer, patch sites, kind).  Every site is a (module, attribute) pair
# that some caller resolves at call time.
HOOKS = (
    ("kernels.quad_step", (("qtgrad.kernels", "quad_step"),), "kernel"),
    ("kernels.quad_gradient", (("qtgrad.kernels", "quad_gradient"),),
     "kernel"),
    ("kernels.quad_value", (("qtgrad.kernels", "quad_value"),), "kernel"),
    ("termination3d.alpha_new_bb", (("qtgrad.termination3d", "alpha_new_bb"),
                                    ("qtgrad.quadsolver", "alpha_new_bb"),
                                    ("qtgrad.uncsolver", "alpha_new_bb")),
     "stepsize"),
    ("stepsizes.bbq_stepsize", (("qtgrad.stepsizes", "bbq_stepsize"),
                                ("qtgrad.quadsolver", "bbq_stepsize"),
                                ("qtgrad.uncsolver", "bbq_stepsize")),
     "stepsize"),
    ("stepsizes.sd_stepsize", (("qtgrad.stepsizes", "sd_stepsize"),
                               ("qtgrad.quadsolver", "sd_stepsize")),
     "stepsize"),
    ("quadsolver.solve", (("qtgrad.quadsolver", "solve_bb"),
                          ("qtgrad.quadsolver", "solve_new"),
                          ("qtgrad.benchcli", "solve_bb"),
                          ("qtgrad.benchcli", "solve_new")), "solver"),
    ("uncsolver.solve", (("qtgrad.uncsolver", "solve"),
                         ("qtgrad.benchcli", "solve")), "solver"),
    ("uncsolver.linesearch", (("qtgrad.uncsolver", "_search"),),
     "linesearch"),
    ("quadprob.generate", (("qtgrad.quadprob", "generate"),), "generate"),
    ("quadprob.starting_point", (("qtgrad.quadprob", "starting_point"),),
     "plain"),
    ("benchcli.run_experiment", (("qtgrad.benchcli", "run_experiment"),),
     "plain"),
)
ACCEPT_SITE = ("qtgrad.termination3d", "GradientHistory.set_stepsize")


class Stat:
    """Counters of one layer, summed over every traced pass."""

    __slots__ = ("calls", "self_ns", "errors", "accepted", "iters",
                 "elems", "backtracks", "branches", "keys")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.errors = 0
        self.accepted = 0
        self.iters = 0
        self.elems = 0
        self.backtracks = 0
        self.branches = {}
        self.keys = set()


def _resolve(site):
    """(owner, attribute name) for a site, or None when it is gone."""
    modname, path = site
    try:
        obj = importlib.import_module(modname)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    if not hasattr(obj, attr):
        return None
    return obj, attr


class Patches:
    """Attribute replacements undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def apply(self, sites, make_wrapper) -> bool:
        """Wrap every existing site; one wrapper per distinct original.

        Returns False when none of the sites exists.
        """
        wrappers = {}
        found = False
        for site in sites:
            target = _resolve(site)
            if target is None:
                continue
            owner, attr = target
            orig = owner.__dict__.get(attr, getattr(owner, attr))
            if id(orig) not in wrappers:
                wrappers[id(orig)] = make_wrapper(orig)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrappers[id(orig)])
            found = True
        return found

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class SolveTimer:
    """Times each call of the public solver entry points, nothing else.

    Used on untraced passes, where the harness cannot put the timer
    around the call itself (the grid calls the solvers from inside
    ``benchcli.run_experiment``).  Just before each call it times
    ``probe`` too, into ``probes`` (see speed.py).
    """

    def __init__(self, sites, probe):
        self.sites = sites
        self.probe = probe
        self.seconds = []
        self.probes = []
        self._patches = Patches()

    def _make(self, fn):
        clock = time.perf_counter
        probe = self.probe
        out = self.seconds
        probes = self.probes

        def timed(*args, **kwargs):
            p0 = clock()
            probe()
            t0 = clock()
            rep = fn(*args, **kwargs)
            t1 = clock()
            probes.append(t0 - p0)
            out.append(t1 - t0)
            return rep
        return timed

    def __enter__(self):
        self._patches.apply(self.sites, self._make)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


class Tracer:
    """Installs the layer hooks for the length of a ``with`` block."""

    def __init__(self):
        self.stats = {name: Stat() for name, _, _ in HOOKS}
        self.stats["testfuns.value"] = Stat()
        self.stats["testfuns.gradient"] = Stat()
        self.absent = set()
        self._stack = []
        self._pending = {}
        self._patches = Patches()

    def timed(self, name, fn, after=None):
        """Wrap fn so its calls and self time count towards layer name."""
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                st.errors += 1
                raise
            finally:
                dt = clock() - t0
                st.calls += 1
                st.self_ns += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(st, args, out)
            return out
        return wrapper

    def _after(self, name, kind):
        if kind == "kernel":
            def after(st, args, out):
                st.elems += getattr(args[0], "size", 0) if args else 0
        elif kind == "stepsize":
            pending = self._pending

            def after(st, args, out):
                pending[name] = out
        elif kind == "solver":
            def after(st, args, rep):
                st.iters += getattr(rep, "iterations", 0)
                for label, n in getattr(rep, "branch_counts", {}).items():
                    st.branches[label] = st.branches.get(label, 0) + n
        elif kind == "linesearch":
            def after(st, args, out):
                st.backtracks += out[1] - 1
        elif kind == "generate":
            def after(st, args, out):
                st.keys.add(args)
        else:
            after = None
        return after

    def _accepting(self, fn):
        """set_stepsize wrapper: a short step is accepted when taken."""
        pending = self._pending
        stats = self.stats

        def set_stepsize(hist, stepsize):
            for name, value in pending.items():
                if stepsize == value:
                    stats[name].accepted += 1
            pending.clear()
            return fn(hist, stepsize)
        return set_stepsize

    def objective(self, f):
        """Copy of objective f whose value and gradient are traced."""
        return dataclasses.replace(
            f, value=self.timed("testfuns.value", f.value),
            gradient=self.timed("testfuns.gradient", f.gradient))

    def __enter__(self):
        for name, sites, kind in HOOKS:
            after = self._after(name, kind)
            if not self._patches.apply(
                    sites, lambda fn, n=name, a=after: self.timed(n, fn, a)):
                self.absent.add(name)
        if not self._patches.apply(
                (ACCEPT_SITE,), self._accepting):
            self.absent.add("accept_ratio")
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        self._stack.clear()
        self._pending.clear()

    def total_self_ns(self) -> int:
        return sum(st.self_ns for st in self.stats.values())
