"""Spans around the public functions of each graphzeta module.

Tracing rebinds functions from outside the package: every module namespace
that holds a wrapped function gets the wrapper, because the modules import
each other's functions by name (`from .interval import solve_imag_axis`),
so patching the defining module alone would miss most calls.  Spans
(name, start, end, parent, (pass, operation), thread, detail) are kept in
memory and written out when the run ends; self times subtract the child
spans of the same thread.

A few hooks are private functions of graphzeta.oracle (the coarse grid and
the refinement of the scan); where a later version renames them, their
metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import defaultdict

# (module, function, span name).  Public functions unless noted.
HOOKS = [
    ("interval", "solve_imag_axis", "interval.solve"),
    ("interval", "transfer_matrices_real", "interval.transfer"),
    ("secular", "F_imag", "secular.logF"),
    ("secular", "logF_and_slope_imag", "secular.logF"),
    ("secular", "asymptotic_F_coefficients", "secular.asym"),
    ("secular", "dF_dL_imag", "secular.dFdL"),
    ("secular", "secular_matrices_real", "secular.real"),
    ("zeta", "zeta_total", "zeta.total"),
    ("zeta", "zeta_im", "zeta.im"),
    ("zeta", "zeta_dir_bond", "zeta.dir"),
    ("zeta", "minus_half_data", "zeta.minus_half"),
    ("casimir", "vacuum_energy", "casimir.energy"),
    ("casimir", "casimir_force", "casimir.force"),
    ("oracle", "scan_spectrum", "oracle.scan"),
    ("oracle", "_scan_once", "oracle.scan_once"),        # private
    ("oracle", "_singulars", "oracle.coarse"),           # private
    ("oracle", "_matrices", "oracle.refine"),            # private
    ("graph", "parse_graph", "graph.parse"),
    ("graph", "replace_bond_length", "graph.replace_bond_length"),
]

# scipy's quad as bound in these modules; the integrand is counted.
QUAD_HOOKS = [("zeta", "zeta.quad"), ("casimir", "casimir.quad")]

CROSSOVER_TL = 20.0      # interval.CROSSOVER_TL: linear below, Riccati above
STIFF_TL = 3000.0        # interval.STIFF_TL: Riccati switches to Radau


def _detail(name, args, kwargs, result):
    """The part of a call the layer metrics need, kept small."""
    if name == "interval.solve":
        bond, t = args[0], float(args[1])
        reverse = bool(kwargs.get("reverse", False))
        if reverse and bond.potential.symmetric(bond.length):
            reverse = False
        return (t, t * bond.length, result.method,
                (bond, t, reverse, kwargs.get("method", "auto")))
    if name == "secular.logF":
        return float(args[2])
    if name in ("interval.transfer", "secular.real", "oracle.coarse",
                "oracle.refine"):
        ks = args[1] if name == "interval.transfer" else args[2]
        return len(ks)
    if name == "oracle.scan":
        return (int(kwargs.get("threads", 1)), result.count)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None          # (pass, operation index), set by the caller
        self.evals = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                   threading.get_ident(), None]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[6] = _detail(name, args, kwargs, result)
            return result
        return wrapper

    def _wrap_quad(self, key, quad):
        tracer = self

        @functools.wraps(quad)
        def counted(f, *args, **kwargs):
            def g(x, *a):
                tracer.evals[key] += 1
                return f(x, *a)
            return quad(g, *args, **kwargs)
        return counted

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "graphzeta" or n.startswith("graphzeta.")]
        for mod_name, fn_name, span in HOOKS:
            original = getattr(sys.modules.get(f"graphzeta.{mod_name}"),
                               fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for mod_name, key in QUAD_HOOKS:
            mod = sys.modules[f"graphzeta.{mod_name}"]
            if hasattr(mod, "quad"):
                self._saved.append((mod, "quad", mod.quad))
                mod.quad = self._wrap_quad(key, mod.quad)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        # the solve detail's last entry is the cache key, which holds the Bond
        rows = [[n, s, e, p, op, tid,
                 d[:3] if n == "interval.solve" and d is not None else d]
                for n, s, e, p, op, tid, d in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "pass_op", "thread", "detail"],
                       "spans": rows}, fh)

    def layer_metrics(self, passes):
        """Per-layer metrics, summed over the run and divided by passes
        (maxima and ratios are taken over the whole run)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, s, e, parent, *_ in spans:
            if parent >= 0:
                child[parent] += e - s
        tot = defaultdict(float)
        cnt = defaultdict(int)
        selft = defaultdict(float)
        by_method_s = defaultdict(float)
        by_method_n = defaultdict(int)
        by_band = defaultdict(float)
        keys = set()
        t_max = zeta_t_max = 0.0
        ks = defaultdict(int)
        threads2 = roots = 0.0

        def ancestors(i):
            out = set()
            p = spans[i][3]
            while p >= 0:
                out.add(spans[p][0])
                p = spans[p][3]
            return out

        for i, (name, s, e, parent, op, tid, d) in enumerate(spans):
            dur = e - s
            tot[name] += dur
            cnt[name] += 1
            selft[name] += dur - child[i]
            if d is None:
                continue
            if name == "interval.solve":
                t, tl, method, key = d
                keys.add((op[0], key))      # the cache is cleared per pass
                by_method_s[method] += dur
                by_method_n[method] += 1
                band = ("tl_lt_20" if tl < CROSSOVER_TL else
                        "tl_20_3000" if tl < STIFF_TL else "tl_ge_3000")
                by_band[band] += dur
                t_max = max(t_max, t)
            if name in ("interval.solve", "secular.logF"):
                t = d[0] if name == "interval.solve" else d
                if t > zeta_t_max:
                    anc = ancestors(i)
                    if ("secular.asym" not in anc
                            and anc & {"zeta.total", "zeta.minus_half"}):
                        zeta_t_max = t
            if isinstance(d, int):
                ks[name] += d
            if name == "oracle.scan":
                roots += d[1]
                if d[0] == 2:
                    threads2 += dur

        n = max(passes, 1)
        calls = cnt["interval.solve"]
        m = {
            "interval.solve_calls": calls / n,
            "interval.solve_unique": len(keys) / n,
            "interval.cache_hit_ratio":
                1.0 - len(keys) / calls if calls else 0.0,
            "interval.t_max": t_max,
            "interval.transfer_s": tot["interval.transfer"] / n,
            "interval.transfer_k": ks["interval.transfer"] / n,
            "secular.logF_calls": cnt["secular.logF"] / n,
            "secular.logF_self_s": selft["secular.logF"] / n,
            "secular.asym_calls": cnt["secular.asym"] / n,
            "secular.asym_s": tot["secular.asym"] / n,
            "secular.dFdL_calls": cnt["secular.dFdL"] / n,
            "secular.dFdL_s": tot["secular.dFdL"] / n,
            "secular.real_k": ks["secular.real"] / n,
            "secular.real_self_s": selft["secular.real"] / n,
            "zeta.integrand_evals": self.evals["zeta.quad"] / n,
            "zeta.self_s": sum(selft[k] for k in ("zeta.total", "zeta.im",
                                                  "zeta.dir",
                                                  "zeta.minus_half")) / n,
            "zeta.t_max": zeta_t_max,
            "zeta.minus_half_s": tot["zeta.minus_half"] / n,
            "casimir.integrand_evals": self.evals["casimir.quad"] / n,
            "casimir.self_s": (selft["casimir.energy"]
                               + selft["casimir.force"]) / n,
            "oracle.coarse_k": ks["oracle.coarse"] / n,
            "oracle.coarse_s": tot["oracle.coarse"] / n,
            "oracle.refine_k": ks["oracle.refine"] / n,
            "oracle.refine_s": (tot["oracle.scan_once"]
                                - tot["oracle.coarse"]) / n,
            "oracle.rescans": (cnt["oracle.scan_once"]
                               - cnt["oracle.scan"]) / n,
            "oracle.roots": roots / n,
            "oracle.threads2_s": threads2 / n,
            "graph.parse_s": tot["graph.parse"] / n,
            "graph.replace_bond_length_calls":
                cnt["graph.replace_bond_length"] / n,
            "trace.spans": len(spans) / n,
        }
        for method in ("analytic", "linear", "riccati"):
            m[f"interval.solve_s.{method}"] = by_method_s[method] / n
            m[f"interval.solve_n.{method}"] = by_method_n[method] / n
        for band in ("tl_lt_20", "tl_20_3000", "tl_ge_3000"):
            m[f"interval.solve_s.{band}"] = by_band[band] / n
        return m
