"""Per-layer timing and counts, taken from outside the program.

The tracer wraps public functions of polyabiquad's layers and rebinds every
module attribute in the package that refers to them, so calls between
modules (``lattice`` calling ``units.integral_square_root``, ``cli`` calling
``polya.polya_report``) go through the wrapper.  Methods are wrapped on
their class.  No program source is touched.

Each wrapper records, per layer: calls, total time (outermost activation
only, so recursion is not counted twice), self time (total minus the time
of wrapped calls made inside it), and for search layers how many calls found
something (a non-None result).  Times are accumulated per request and
scaled to reference time by the caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, counts found results)
LAYERS = (
    ("cli", "main", False),
    ("biquadratic", "biquadratic_field", False),
    ("units", "unit_structure", False),
    ("units", "integral_square_root", True),
    ("lattice", "prime_radical", False),
    ("lattice", "relative_norm_ideal", False),
    ("lattice", "principal_ideal_generator", True),
    ("lattice", "AmbiguousIdealOracle.class_representatives", False),
    ("lattice", "AmbiguousIdealOracle.polya_order_oracle", False),
    ("lattice", "AmbiguousIdealOracle.kernel_order_oracle", False),
    ("quadratic", "principal_generator_quad", True),
    ("linalg", "hnf_rows", False),
    ("polya", "polya_report", False),
    ("polya", "verify_biquad", False),
)


class LayerTracer:
    """Wraps the layers in LAYERS; ``take()`` returns and clears what one
    request recorded."""

    def __init__(self):
        self.clock = time.perf_counter
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = defaultdict(int)
        self._budgets: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.found: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, fn, counts_found: bool):
        stack, active = self._stack, self._active
        calls, found, self_s, total_s = self.calls, self.found, self.self_s, self.total_s

        def traced(*args, **kwargs):
            clock = self.clock
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if not active[name]:
                    total_s[name] += dt
                if stack:
                    stack[-1][0] += dt
            if counts_found and result is not None:
                found[name] += 1
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = "polyabiquad"
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for mod_name, path, counts_found in LAYERS:
            mod = sys.modules[f"{pkg}.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], counts_found))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(name, orig, counts_found)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapper)
        budget_cls = sys.modules[f"{pkg}.errors"].Budget
        orig_init = budget_cls.__init__
        budgets = self._budgets

        def init(obj, *args, **kwargs):
            orig_init(obj, *args, **kwargs)
            budgets.append(obj)

        self._set(budget_cls, "__init__", init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> dict:
        """{layer: (calls, found, self_s, total_s)} for the last request,
        plus the budget units spent as ('errors.Budget', units)."""
        out = {n: (self.calls[n], self.found[n], self.self_s[n], self.total_s[n])
               for n in self.calls}
        out["errors.Budget"] = sum(b.spent for b in self._budgets)
        self._budgets.clear()
        for d in (self.calls, self.found, self.self_s, self.total_s):
            d.clear()
        return out
