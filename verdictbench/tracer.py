"""Out-of-program layer trace.

`Tracer.install()` wraps, from outside the program, every public function
defined in a loaded `ausglue.*` module, plus `Mat.rref`, and counts the
`Mat` constructors (`Mat.__init__` and `Mat.zero`).  A layer is named
`<module>.<function>`, e.g. `fincat.hom_modules`; the constructors are the
count-only layer `linalg.mat_new`.

Modules import each other's functions by name (`from .fincat import
hom_modules` in glue, homology, knitting and tower), so a wrapper must
replace the original object in every `ausglue` namespace, and on `Mat`.
`install` does that and then raises `StaleBinding` if any original is
still reachable from a module namespace, a class defined there, or a
function default.

Per layer the trace keeps `calls`, `self_s` (time inside the layer minus
time inside wrapped layers it called) and a few work counters:

    fincat.modules_isomorphic  hits       calls that returned True
    fincat.hom_modules         unknowns   sum over x of dim M(x) * dim N(x)
    homology.min_proj_resolution  summands  projective summands built
    knitting.knit              modules    AR-quiver vertices knitted
    linalg.rref                empty      calls on a matrix with no entries
                               entries    sum of rows * cols
"""

import functools
import inspect
import sys
import time


PACKAGE = "ausglue"


class StaleBinding(RuntimeError):
    pass


def _hits(layer, args, result):
    layer.extra["hits"] += bool(result)


def _unknowns(layer, args, result):
    M, N = args[0], args[1]
    layer.extra["unknowns"] += sum(M.dims[x] * N.dims[x]
                                   for x in M.cat.objects)


def _summands(layer, args, result):
    layer.extra["summands"] += sum(len(t) for t in result.terms)


def _modules(layer, args, result):
    layer.extra["modules"] += result.count


def _rref_shape(layer, args, result):
    size = args[0].nrows * args[0].ncols
    layer.extra["empty"] += size == 0
    layer.extra["entries"] += size


COUNTERS = {
    "fincat.modules_isomorphic": (_hits, ("hits",)),
    "fincat.hom_modules": (_unknowns, ("unknowns",)),
    "homology.min_proj_resolution": (_summands, ("summands",)),
    "knitting.knit": (_modules, ("modules",)),
    "linalg.rref": (_rref_shape, ("empty", "entries")),
}


class Layer:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self, extra_names=()):
        self.calls = 0
        self.self_s = 0.0
        self.extra = dict.fromkeys(extra_names, 0)

    def to_dict(self):
        return dict(calls=self.calls, self_s=self.self_s, **self.extra)


class Tracer:
    def __init__(self):
        self.layers = {}
        # one accumulator per open span: time spent in wrapped children
        self._stack = []

    def _timed(self, name, fn):
        count, extra_names = COUNTERS.get(name, (None, ()))
        layer = self.layers[name] = Layer(extra_names)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                layer.calls += 1
                layer.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(layer, args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        layer = self.layers.setdefault(name, Layer())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        mods = {n: m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")}
        replace = {}  # id(original) -> (original, wrapper)
        for modname, mod in mods.items():
            short = modname.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not name.startswith("_")):
                    replace[id(obj)] = (obj, self._timed(
                        "%s.%s" % (short, name), obj))
        for modname, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

        Mat = mods[PACKAGE + ".linalg"].Mat
        rref = Mat.__dict__["rref"]
        init = Mat.__dict__["__init__"]
        zero = Mat.__dict__["zero"].__func__
        Mat.rref = self._timed("linalg.rref", rref)
        Mat.__init__ = self._counted("linalg.mat_new", init)
        Mat.zero = staticmethod(self._counted("linalg.mat_new", zero))
        originals = {id(o): o for o, _ in replace.values()}
        originals.update({id(f): f for f in (rref, init, zero)})
        self._check_no_stale(mods, originals)

    def _check_no_stale(self, mods, originals):
        stale = []

        def is_original(obj):
            return originals.get(id(obj), stale) is obj

        def look(where, obj):
            obj = getattr(obj, "__func__", obj)  # staticmethod/classmethod
            if is_original(obj):
                stale.append(where)
            if inspect.isfunction(obj):
                base = inspect.unwrap(obj)
                defaults = list(base.__defaults__ or ()) + list(
                    (base.__kwdefaults__ or {}).values())
                for d in defaults:
                    if is_original(d):
                        stale.append(where + " default")

        for modname, mod in mods.items():
            for name, obj in vars(mod).items():
                look("%s.%s" % (modname, name), obj)
                if inspect.isclass(obj) and obj.__module__ == modname:
                    for attr, val in vars(obj).items():
                        look("%s.%s.%s" % (modname, name, attr), val)
        if stale:
            raise StaleBinding("unwrapped bindings remain: "
                               + ", ".join(sorted(stale)))

    def summary(self):
        return {name: layer.to_dict()
                for name, layer in sorted(self.layers.items())}
