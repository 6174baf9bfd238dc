"""Spans around the library's public functions, for the traced run only.

`Tracer.install` rebinds each traced function, in every loaded `dresidues`
module that holds it (including names bound by `from .module import name`), to a
wrapper that records one span: name, start, end, parent span and op.  The
untraced runs never install it.  Spans stay in memory; `layer_metrics`
reduces them to totals, self times and call counts per function, and to
stage shares.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Traced functions as (module, name).  The stage of a span is its module,
# except that kernel (`polys`) spans belong to the stage of their caller.
TRACED = (
    ("cli", "main"),
    ("cli", "parse"),
    ("hermite", "hermite_list"),
    ("hermite", "hermite_reduction"),
    ("shiftset", "shift_set"),
    ("reduction", "simple_reduction"),
    ("reduction", "simple_reduction_multi"),
    ("ratfun", "parfrac"),
    ("residues", "first_residues"),
    ("residues", "first_residues_multi"),
    ("residues", "discrete_residues_coordinated"),
    ("residues", "discrete_residues_multi"),
    ("summability", "is_summable"),
    ("summability", "nullspace"),
    ("summability", "vspace"),
    ("galois", "multiplicative_relations"),
    ("galois", "exp_log_derivative"),
    ("galois", "integer_kernel"),
    ("galois", "hermite_normal_form"),
    ("galois", "factor_rational"),
    ("polys", "squarefree_decomposition"),
    ("polys", "resultant_shift"),
    ("polys", "resultant"),
    ("polys", "factor_int"),
    ("polys", "gcd"),
    ("polys", "inverse_mod"),
)
KERNEL = "polys"
STAGES = ("cli", "hermite", "shiftset", "reduction", "ratfun", "residues", "summability", "galois", KERNEL)

# Metric suffixes reported for each traced function; UNITS gives their units.
REPORTED = {
    "cli.main": ("self_s",),
    "cli.parse": ("s", "calls"),
    "hermite.hermite_list": ("self_s", "calls", "deg_max"),
    "hermite.hermite_reduction": ("s", "calls"),
    "polys.squarefree_decomposition": ("s", "calls"),
    "shiftset.shift_set": ("self_s", "calls", "deg_max", "bits_max"),
    "polys.resultant_shift": ("s", "calls"),
    "polys.resultant": ("calls",),
    "polys.factor_int": ("s", "calls"),
    "reduction.simple_reduction": ("self_s", "calls"),
    "reduction.simple_reduction_multi": ("self_s", "calls"),
    "ratfun.parfrac": ("s", "calls"),
    "residues.first_residues": ("s", "calls"),
    "residues.first_residues_multi": ("self_s", "calls"),
    "summability.is_summable": ("self_s", "calls"),
    "summability.nullspace": ("s", "calls"),
    "summability.vspace": ("self_s",),
    "galois.multiplicative_relations": ("self_s", "calls"),
    "galois.exp_log_derivative": ("self_s", "calls"),
    "galois.integer_kernel": ("s", "calls"),
    "galois.hermite_normal_form": ("s", "calls"),
    "galois.factor_rational": ("s", "calls"),
    "polys.gcd": ("s", "calls"),
    "polys.inverse_mod": ("s", "calls"),
}
UNITS = {"s": "s", "self_s": "s", "calls": "count", "deg_max": "degree", "bits_max": "bits"}


def _bits(p) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.coeffs), default=0)


# Input sizes recorded per call: (degree, coefficient bits) of the argument.
SIZERS = {
    "hermite.hermite_list": lambda f: (f.den.degree, None),
    "shiftset.shift_set": lambda b: (b.degree, _bits(b)),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"{fn}.{suffix}", UNITS[suffix]) for fn, suffixes in REPORTED.items() for suffix in suffixes]
    out += [("hermite.layers_over_first", "ratio"), ("hermite.first_reduction.s", "s")]
    out += [(f"stage.{stage}.share", "ratio") for stage in STAGES]
    out += [("trace.coverage", "ratio"), ("trace.spans", "count"), ("trace.overhead_ops_per_s", "ops/s")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.sizes: dict[str, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "dresidues" or name.startswith("dresidues.")]
        for nid, (mod, fn) in enumerate(TRACED):
            orig = getattr(sys.modules[f"dresidues.{mod}"], fn)
            wrapper = self._wrap(nid, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, attr, orig))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def _wrap(self, nid: int, fn):
        name = self.names[nid]
        sizer = SIZERS.get(name)
        name_of, start, end, parent, op, stack = self.name_of, self.start, self.end, self.parent, self.op, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sizer is not None:
                self._record_size(name, sizer(args[0]))
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _record_size(self, name: str, size: tuple[int | None, int | None]) -> None:
        best = self.sizes.setdefault(name, [0, 0])
        for i, v in enumerate(size):
            if v is not None and v > best[i]:
                best[i] = v

    def layer_metrics(self, op_seconds: float) -> dict[str, float]:
        """Per-function totals, self times and counts, stage shares, and the
        share of the ops' wall time that root spans cover.  Parents are
        recorded before their children, so one forward pass sees each
        parent's stage before its children need it."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        stage_of_name = [name.split(".")[0] for name in self.names]
        stage = [""] * n
        total = {name: 0.0 for name in self.names}
        self_t = dict(total)
        calls = dict.fromkeys(self.names, 0)
        shares = dict.fromkeys(STAGES, 0.0)
        first_red: dict[int, int] = {}
        red_id = self.names.index("hermite.hermite_reduction")
        list_id = self.names.index("hermite.hermite_list")
        root = 0.0
        for i in range(n):
            name = self.names[self.name_of[i]]
            p = self.parent[i]
            own = stage_of_name[self.name_of[i]]
            stage[i] = stage[p] if own == KERNEL and p >= 0 else own
            total[name] += dur[i]
            self_t[name] += dur[i] - child[i]
            calls[name] += 1
            shares[stage[i]] += dur[i] - child[i]
            if p < 0:
                root += dur[i]
            elif self.name_of[i] == red_id and self.name_of[p] == list_id:
                first_red.setdefault(p, i)
        out: dict[str, float] = {}
        for name, suffixes in REPORTED.items():
            values = {"s": total[name], "self_s": self_t[name], "calls": calls[name]}
            deg, bits = self.sizes.get(name, (0, 0))
            values.update(deg_max=deg, bits_max=bits)
            for suffix in suffixes:
                out[f"{name}.{suffix}"] = values[suffix]
        first = sum(dur[i] for i in first_red.values())
        out["hermite.layers_over_first"] = sum(dur[p] for p in first_red) / first if first else 0.0
        out["hermite.first_reduction.s"] = first
        for st in STAGES:
            out[f"stage.{st}.share"] = shares[st] / root if root else 0.0
        out["trace.coverage"] = root / op_seconds if op_seconds else 0.0
        out["trace.spans"] = n
        return out
