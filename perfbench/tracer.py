"""Outside-in tracing of the orderzeta package.

The package is not edited.  Tracer.install wraps functions after import
and rebinds every name that refers to them in every orderzeta module:
modules bind names with `from .x import y`, so patching only the
defining module would miss most call sites.

Spanned functions record a span (name, start, end, parent, case id) and
per-name calls, inclusive time, self time and OrderZetaErrors raised.
Counted functions are too hot for a span and only count calls; their
time falls into the enclosing span.
"""

import functools
import inspect
import json
import sys
from time import perf_counter

# the modules whose public functions get spans
SPANNED_MODULES = ("cli", "report", "orbital", "zeta", "orders", "lattices",
                   "polynomials", "parsing")

# hot functions that are counted, not spanned: the two enumeration
# kernels, the series leaves and the matrix-vector product the kernels
# call (174,603 times for nlines n=3 at q=4)
COUNTED = ("lattices._compose_and_reduce", "lattices._relative_action",
           "lattices.mat_vec", "series.ser_mul", "series.ser_add")


class Tracer:
    def __init__(self, error_type):
        self.error_type = error_type
        self.spans = []           # (name, start, end, parent index, case id)
        self.inclusive = {}
        self.self_time = {}
        self.failed = {}
        # case id -> {function name: calls, "nodes": lattices returned by
        # stable_sublattice_levels, "homothety_hits": is_homothetic calls
        # that found a witness}
        self.case_counts = {}
        self._stack = []          # [name, start, child time, index, parent]
        self._active = {}         # name -> open spans of that name
        self.spanned = []
        self.counted = []
        self.case_id = None
        self._case = {}           # counts made outside any case are dropped

    def start_case(self, case_id):
        """Attribute the spans and counts that follow to this case."""
        self.case_id = case_id
        self._case = self.case_counts.setdefault(case_id, {})

    def totals(self):
        """Counts summed over every case."""
        out = {}
        for counts in self.case_counts.values():
            for name, value in counts.items():
                out[name] = out.get(name, 0) + value
        return out

    # -- recording ---------------------------------------------------------

    def _count(self, name):
        case = self._case
        case[name] = case.get(name, 0) + 1

    def _enter(self, name):
        self._count(name)
        parent = self._stack[-1][3] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, perf_counter(), 0.0, index, parent])

    def _exit(self, failed):
        end = perf_counter()
        name, start, child, index, parent = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, parent, self.case_id)
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self._active[name] -= 1
        if not self._active[name]:    # recursion: count the outermost only
            self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        if failed:
            self.failed[name] = self.failed.get(name, 0) + 1

    def _on_result(self, name, result):
        case = self._case
        if name == "lattices.stable_sublattice_levels":
            case["nodes"] = case.get("nodes", 0) + sum(map(len, result))
        elif name == "lattices.is_homothetic" and result is not None:
            case["homothety_hits"] = case.get("homothety_hits", 0) + 1

    # -- wrappers ----------------------------------------------------------

    def _counted(self, name, fn):
        count = self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn):
        tracer = self
        error_type = self.error_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            failed = False
            try:
                result = fn(*args, **kwargs)
            except error_type:
                failed = True
                raise
            finally:
                tracer._exit(failed)
            tracer._on_result(name, result)
            return result
        return wrapper

    def install(self, package="orderzeta"):
        """Wrap the traced functions of the imported package and rebind
        every module-level name that refers to one of them."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or \
                        value.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNTED:
                    self.counted.append(name)
                    wrappers[id(value)] = self._counted(name, value)
                elif short in SPANNED_MODULES and not attr.startswith("_"):
                    self.spanned.append(name)
                    wrappers[id(value)] = self._spanned(name, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        missing = set(COUNTED) - set(self.counted)
        if missing:
            raise LookupError(f"no function to count for {sorted(missing)}")

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every layer number of the run: per traced function .calls, and
        per spanned one .s (inclusive), .self_s and .failed; per module
        .self_s and .failed; and the named enumeration counters."""
        calls = self.totals()
        out = {f"{name}.calls": calls.get(name, 0) for name in self.counted}
        for name in self.spanned:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = self.inclusive.get(name, 0.0)
            out[f"{name}.self_s"] = self.self_time.get(name, 0.0)
            out[f"{name}.failed"] = self.failed.get(name, 0)
        for module in SPANNED_MODULES:
            out[f"{module}.self_s"] = sum(
                (v for k, v in self.self_time.items()
                 if k.partition(".")[0] == module), 0.0)
            out[f"{module}.failed"] = sum(
                v for k, v in self.failed.items()
                if k.partition(".")[0] == module)
        compositions = calls.get("lattices._compose_and_reduce", 0)
        nodes = calls.get("nodes", 0)
        homothetic = calls.get("lattices.is_homothetic", 0)
        out.update({
            "lattices.compositions": compositions,
            "lattices.nodes": nodes,
            "lattices.compositions_per_node":
                compositions / nodes if nodes else 0.0,
            "lattices.relative_actions":
                calls.get("lattices._relative_action", 0),
            "lattices.subspace_solves":
                calls.get("lattices.stable_subspaces_mod_t", 0),
            "lattices.is_homothetic.hit_ratio":
                calls.get("homothety_hits", 0) / homothetic
                if homothetic else 0.0,
            "cli.render_s": self._render_time(),
        })
        return out

    def _render_time(self):
        """Time in cli.main outside the report builders it calls."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name == "cli.main":
                total += end - start
            elif name.startswith("report.") and parent is not None and \
                    self.spans[parent][0] == "cli.main":
                total -= end - start
        return total

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent index, case."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
