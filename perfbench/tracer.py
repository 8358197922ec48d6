"""Outside-in tracing of opkit: spans per public call, per layer.

``Tracer.install`` wraps every public function of the layer modules, and the
arithmetic operators of the classes they define (``Polynomial * Polynomial``,
``Matrix + Matrix``), then
rebinds each wrapper in every opkit module that holds the original under any
name (``planner.contains_one``, ``reducer.instantiate``, the names in
``cli``, ...).  The ``opkit.kernels`` attributes are patched once; callers
reach them by attribute, so every kernel call is seen.  Kernel calls are not
spans: their count and time are added to the span that made them.

A span records its name, layer, parent, job, start and end.  Self time is a
span's duration minus the time of its children and kernel calls, so the
self times of all layers, plus the ``bench`` layer of the job root spans,
add up to the traced job time.  Work the tracer does for its own counters
runs outside every measured interval but inside the job: it is charged to
``bench``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

LAYERS = ("cli", "poly", "groebner", "planner", "certify", "backend",
          "reducer", "symmetry")
KERNEL_LAYER = {"poly_add": "poly", "poly_sub": "poly", "poly_neg": "poly",
                "poly_scale": "poly", "poly_mul": "poly",
                "poly_term_mul": "poly", "poly_isubmul": "poly",
                "mat_mul": "backend", "mat_apply": "backend",
                "row_combine_int": "backend"}
OPERATORS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__",
             "__pow__"}
SOLVERS = {"backend.solve_affine", "backend.kernel_basis"}

# span fields
NAME, LAYER, PARENT, JOB, START, END, CHILD = range(7)


def _coefficient_bits(polys) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


def _terms_max(polys) -> int:
    return max((len(p.terms) for p in polys), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kernels: dict[tuple[int, str], list[int]] = {}
        self.job = -1
        self.hook_ns = 0                    # tracer bookkeeping inside jobs
        self.counts = {
            "membership_calls": 0, "membership_repeats": 0,
            "membership_units": 0, "groebner_terms_max": 0,
            "groebner_bits_max": 0, "certify_terms_max": 0,
            "certify_bits_max": 0, "instantiate_calls": 0,
            "instantiate_repeats": 0, "instantiate_density_sum": 0.0,
            "solve_calls": 0, "solve_repeats": 0, "basis_size": 0,
        }
        self._seen_ideals: set = set()
        self._seen_instantiations: set = set()
        self._seen_matrices: set = set()
        self._instances: list = []      # keeps ids of traced instances unique
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"opkit.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr in OPERATORS & set(vars(obj)):
                        self._set(obj, attr, self._wrap(
                            vars(obj)[attr], f"{layer}.{name}.{attr}", layer))
        for module in [m for n, m in sys.modules.items()
                       if n == "opkit" or n.startswith("opkit.")]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(module, name, wrappers[id(obj)])
        kernels = importlib.import_module("opkit.kernels")
        for name in KERNEL_LAYER:
            self._set(kernels, name,
                      self._wrap_kernel(getattr(kernels, name), name))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- spans -------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, parent, self.job, 0, 0, 0])
        self.stack.append(index)
        return index

    def close(self, index: int, start: int, end: int) -> None:
        self.stack.pop()
        span = self.spans[index]
        span[START], span[END] = start, end
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += end - start

    def _wrap(self, fn, name: str, layer: str):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        if name in SOLVERS:
            hook = self._hook_solver

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, layer)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.close(index, start, end)
            if hook is not None:
                hook(args, result)
                parent = self.spans[index][PARENT]
                spent = perf_counter_ns() - end
                if parent >= 0:
                    self.spans[parent][CHILD] += spent
                self.hook_ns += spent
            return result

        return wrapper

    def _wrap_kernel(self, fn, name: str):
        spans, stack, kernels = self.spans, self.stack, self.kernels

        def wrapper(*args):
            start = perf_counter_ns()
            result = fn(*args)
            spent = perf_counter_ns() - start
            top = stack[-1] if stack else -1
            if top >= 0:
                spans[top][CHILD] += spent
            entry = kernels.get((top, name))
            if entry is None:
                kernels[(top, name)] = [1, spent]
            else:
                entry[0] += 1
                entry[1] += spent
            return result

        return wrapper

    # -- counters, taken at the layer boundaries ---------------------------

    def _hook_groebner_contains_one(self, args, result):
        generators = args[0]
        order = args[1] if len(args) > 1 else None
        key = (order, tuple(frozenset(g.terms.items()) for g in generators))
        c = self.counts
        c["membership_calls"] += 1
        c["membership_repeats"] += key in self._seen_ideals
        self._seen_ideals.add(key)
        if result is not None:
            c["membership_units"] += 1
            c["groebner_terms_max"] = max(c["groebner_terms_max"],
                                          _terms_max(result.cofactors))
            c["groebner_bits_max"] = max(c["groebner_bits_max"],
                                         _coefficient_bits(result.cofactors))

    def _certificate_sizes(self, args, result):
        cofactors = []
        for q in result.cofactors.values():
            cofactors.extend(q.values() if isinstance(q, dict) else [q])
        c = self.counts
        c["certify_terms_max"] = max(c["certify_terms_max"],
                                     _terms_max(cofactors))
        c["certify_bits_max"] = max(c["certify_bits_max"],
                                    _coefficient_bits(cofactors))

    _hook_certify_dual_certificate = _certificate_sizes
    _hook_certify_dual_to_alpha = _certificate_sizes

    def _hook_backend_instantiate(self, args, result):
        p, inst = args[0], args[1]
        self._instances.append(inst)
        key = (id(inst), frozenset(p.terms.items()))
        c = self.counts
        c["instantiate_calls"] += 1
        c["instantiate_repeats"] += key in self._seen_instantiations
        self._seen_instantiations.add(key)
        nonzero = sum(1 for row in result._entries for v in row if v)
        c["instantiate_density_sum"] += nonzero / (result.rows * result.cols)

    def _hook_solver(self, args, result):
        m = args[0]
        key = (m.rows, m.cols, hash(m))
        self.counts["solve_calls"] += 1
        self.counts["solve_repeats"] += key in self._seen_matrices
        self._seen_matrices.add(key)

    def _hook_symmetry_enumerate_formal_symmetries(self, args, result):
        self.counts["basis_size"] += len(result)

    # -- the per-layer report ----------------------------------------------

    def inclusive_s(self, names) -> float:
        """Time in spans named in ``names``, not counting nested ones twice."""
        inside = [False] * len(self.spans)
        total = 0
        for i, span in enumerate(self.spans):
            parent_inside = span[PARENT] >= 0 and inside[span[PARENT]]
            inside[i] = parent_inside or span[NAME] in names
            if span[NAME] in names and not parent_inside:
                total += span[END] - span[START]
        return total / 1e9

    def _under(self, names) -> list[bool]:
        under = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            parent = span[PARENT]
            under[i] = span[NAME] in names or (parent >= 0 and under[parent])
        return under

    def report(self) -> dict:
        """The per-layer metrics.

        ``<layer>.self_s`` includes the layer's kernels.  A repeat share is
        the share of calls whose argument was seen before in the run: the
        same generator list for membership, the same polynomial on the same
        instance object for ``instantiate``, the same matrix for a solve
        (``solve_affine`` or ``kernel_basis``).  ``instantiate_density`` is
        the mean share of nonzero entries in the matrices it returns.
        ``*_s`` of a named function is inclusive time, nested calls counted
        once.
        """
        self_ns = {layer: 0 for layer in LAYERS + ("bench",)}
        membership_by_layer = {layer: 0 for layer in LAYERS}
        for i, span in enumerate(self.spans):
            self_ns[span[LAYER]] += span[END] - span[START] - span[CHILD]
            if span[NAME] == "groebner.contains_one" and span[PARENT] >= 0:
                membership_by_layer[self.spans[span[PARENT]][LAYER]] += 1
        self_ns["bench"] += self.hook_ns
        kernel_calls = {name: 0 for name in KERNEL_LAYER}
        kernel_ns = {name: 0 for name in KERNEL_LAYER}
        under_expand = self._under({"certify.dual_to_alpha"})
        expand_poly_calls = 0
        for (top, name), (count, spent) in self.kernels.items():
            kernel_calls[name] += count
            kernel_ns[name] += spent
            self_ns[KERNEL_LAYER[name]] += spent
            if KERNEL_LAYER[name] == "poly" and top >= 0 and under_expand[top]:
                expand_poly_calls += count
        poly_kernels = [n for n, layer in KERNEL_LAYER.items() if layer == "poly"]
        job_ns = sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)
        c = self.counts
        share = lambda part, whole: part / whole if whole else 0.0
        out = {
            "poly.kernel_calls": sum(kernel_calls[n] for n in poly_kernels),
            "poly.kernel_self_s": sum(kernel_ns[n] for n in poly_kernels) / 1e9,
            "groebner.membership_calls": c["membership_calls"],
            "groebner.membership_repeat_share": share(
                c["membership_repeats"], c["membership_calls"]),
            "groebner.unit_share": share(c["membership_units"],
                                         c["membership_calls"]),
            "groebner.cofactor_terms_max": c["groebner_terms_max"],
            "groebner.cofactor_bits_max": c["groebner_bits_max"],
            "planner.membership_calls": membership_by_layer["planner"],
            "certify.membership_calls": membership_by_layer["certify"],
            "certify.expand_s": self.inclusive_s({"certify.dual_to_alpha"}),
            "certify.expand_poly_calls": expand_poly_calls,
            "certify.verify_s": self.inclusive_s({"certify.verify_certificate"}),
            "certify.cofactor_terms_max": c["certify_terms_max"],
            "certify.cofactor_bits_max": c["certify_bits_max"],
            "backend.instantiate_calls": c["instantiate_calls"],
            "backend.instantiate_repeat_share": share(
                c["instantiate_repeats"], c["instantiate_calls"]),
            "backend.instantiate_density": share(
                c["instantiate_density_sum"], c["instantiate_calls"]),
            "backend.instantiate_s": self.inclusive_s({"backend.instantiate"}),
            "backend.solve_calls": c["solve_calls"],
            "backend.solve_repeat_share": share(c["solve_repeats"],
                                                c["solve_calls"]),
            "backend.solve_s": self.inclusive_s(SOLVERS),
            "backend.mat_mul_calls": kernel_calls["mat_mul"],
            "backend.mat_mul_s": kernel_ns["mat_mul"] / 1e9,
            "backend.row_combine_calls": kernel_calls["row_combine_int"],
            "backend.row_combine_s": kernel_ns["row_combine_int"] / 1e9,
            "reducer.split_s": self.inclusive_s({"reducer.split"}),
            "reducer.recombine_s": self.inclusive_s(
                {"reducer.recombined_solution_set"}),
            "symmetry.enumerate_s": self.inclusive_s(
                {"symmetry.enumerate_formal_symmetries"}),
            "symmetry.witness_s": self.inclusive_s(
                {"symmetry.is_formal_symmetry"}),
            "symmetry.slice_s": self.inclusive_s(
                {"symmetry.generalized_from_formal",
                 "symmetry.formal_from_generalized"}),
            "symmetry.induced_s": self.inclusive_s(
                {"symmetry.induced_kernel_map"}),
            "symmetry.basis_size": c["basis_size"],
            "trace.job_s": job_ns / 1e9,
            "trace.self_sum_share": share(sum(self_ns.values()), job_ns),
        }
        for layer, ns in self_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        return out

    def span_table(self) -> dict:
        """Spans and per-span kernel totals, for writing at the end."""
        return {
            "fields": ["name", "layer", "parent", "job", "start_ns", "end_ns",
                       "child_ns"],
            "spans": self.spans,
            "kernels": [[top, name, count, spent] for (top, name), (count, spent)
                        in sorted(self.kernels.items())],
        }
