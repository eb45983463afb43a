"""In-memory span recorder wrapped around the package's public functions.

Spans are recorded from outside the program: each listed function is replaced,
in every module namespace that bound it, by a wrapper that records
(name, start, end, parent, units). Nothing inside the package changes.

Only the standard library is imported at module load, so that importing this
file before ``teleswitch`` leaves numpy's import inside the measured set-up.
"""
import contextlib
import functools
from array import array
from time import perf_counter

# (module, function) pairs whose calls become spans; names follow the package
TRACED = (
    ("analysis", "figure_of_merit"),
    ("analysis", "evaluate_fidelity"),
    ("analysis", "fidelity_polynomials"),
    ("analysis", "fidelity_profile"),
    ("analysis", "alpha_fidelity_profile"),
    ("analysis", "switched_fidelity"),
    ("analysis", "optimize_outcome"),
    ("switch", "post_selected_polynomials"),
    ("switch", "branch_pair_weight_counts"),
    ("switch", "switch_two"),
    ("switch", "switch_n"),
    ("switch", "post_select"),
    ("channels", "no_switch_fidelity"),
    ("channels", "qubit_fidelity"),
    ("linalg", "tensor_product"),
    ("linalg", "assert_density_matrix"),
    ("verification", "run_all"),
    ("cli", "main"),
)

NAMESPACES = ("", "analysis", "channels", "cli", "linalg", "switch", "verification")


class Tracer:
    """Records nested spans while installed; holds them until written out."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("q")
        self._stack = [-1]
        self.phases = []  # (label, first span, one past last span)
        self._patches = self._plan_patches()

    # -- recording ----------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.units.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid, t0, units=0):
        self.end[sid] = perf_counter()
        self.start[sid] = t0
        self.units[sid] = units
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A harness-level span around one workload call."""
        sid = self._open(self._id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(sid, t0)

    @contextlib.contextmanager
    def phase(self, label):
        """Marks the spans recorded inside as one phase (set-up or a pass)."""
        first = len(self.name_id)
        try:
            yield
        finally:
            self.phases.append((label, first, len(self.name_id)))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, mod, fname, fn):
        tracer = self
        nid = self._id(f"{mod}.{fname}")
        if fname == "switch_n":
            by_n = {n: self._id(f"{mod}.{fname}.n{n}") for n in (2, 3, 4)}

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                n = kwargs.get("n", args[1] if len(args) > 1 else None)
                sid = tracer._open(by_n.get(n, nid))
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(sid, t0)

        elif hasattr(fn, "cache_info"):
            # units = cache misses, i.e. cold builds done by this call
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = tracer._open(nid)
                misses = fn.cache_info().misses
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(sid, t0, fn.cache_info().misses - misses)

        elif fname == "evaluate_fidelity":
            # units = number of p values evaluated
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = tracer._open(nid)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ps = kwargs.get("ps", args[2] if len(args) > 2 else ())
                    tracer._close(sid, t0, _size(ps))

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = tracer._open(nid)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(sid, t0)

        return traced

    def _plan_patches(self):
        """[(namespace object, attribute, original, wrapper)] for every binding."""
        modules = {
            ns: (getattr(self.package, ns) if ns else self.package) for ns in NAMESPACES
        }
        patches = []
        for mod, fname in TRACED:
            original = getattr(modules[mod], fname)
            wrapper = self._wrap(mod, fname, original)
            for namespace in modules.values():
                for attr, value in vars(namespace).items():
                    if value is original:
                        patches.append((namespace, attr, original, wrapper))
        return patches

    def install(self):
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self):
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    # -- output -------------------------------------------------------------

    def arrays(self, first=0, last=None):
        """Spans [first, last) as numpy arrays, with self time derived."""
        import numpy as np

        last = len(self.name_id) if last is None else last
        nid = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last].astype(np.int64)
        dur = (np.frombuffer(self.end)[first:last] - np.frombuffer(self.start)[first:last])
        units = np.frombuffer(self.units, dtype=np.int64)[first:last]
        local = parent - first
        inside = (parent >= 0) & (local >= 0)
        # calls are single-threaded and nested, so children never overlap
        child = np.bincount(local[inside], weights=dur[inside], minlength=len(dur))
        return {
            "name": nid,
            "parent": np.where(inside, local, -1),
            "duration": dur,
            "self": dur - child,
            "units": units,
        }

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            units=np.frombuffer(self.units, dtype=np.int64),
            phase_labels=np.array([p[0] for p in self.phases]),
            phase_bounds=np.array([p[1:] for p in self.phases], dtype=np.int64).reshape(-1, 2),
        )


def _size(ps):
    """Number of p values in an evaluate_fidelity argument."""
    if hasattr(ps, "size"):  # numpy arrays and scalars
        return int(ps.size)
    return len(ps) if hasattr(ps, "__len__") else 1
