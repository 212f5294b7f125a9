"""Timing wrappers around acdol's public functions, and the per-layer
metrics computed from the spans they record.

``Tracer.install`` replaces every public function of the traced modules,
and every public method of the classes they define, by a wrapper that
records a span (name, start, end, parent).  A function imported into
another acdol module by name is replaced there too, so every call is seen.
The wrappers' own bookkeeping is timed and subtracted from the enclosing
spans, so inclusive and self times leave out the tracing itself.
"""

import functools
import gzip
import time
from array import array

# Layers in call order; each is an acdol module.
LAYERS = ("kernel", "linalg", "liealg", "forms", "cohomology", "spectral",
          "harmonic", "pipeline", "docio", "cli")

# Operators of linalg's Matrix and Subspace that are traced besides their
# named public methods.
_OPERATORS = ("__add__", "__sub__", "__neg__", "__matmul__")

# metric name -> the spans it sums (outermost calls only)
TIMED = {
    "kernel.rref_s": ("kernel.rref",),
    "kernel.matmul_s": ("kernel.matmul",),
    "liealg.validate_s": ("liealg.validate_spec",),
    "liealg.frame_s": ("liealg.adapted_frame",),
    "liealg.complexify_s": ("liealg.complexify",),
    "forms.differential_s": ("forms.build_differential",),
    "forms.relations_s": ("forms.verify_relations",),
    "cohomology.mub_s": ("cohomology.mub_cohomology",),
    "cohomology.dolbeault_s": ("cohomology.dolbeault",),
    "cohomology.de_rham_s": ("cohomology.de_rham",),
    "spectral.frolicher_s": ("spectral.frolicher_all",),
    "spectral.decalage_s": ("spectral.decalage_check",),
    "spectral.explicit_page_s": ("spectral.explicit_page",),
    "spectral.witness_s": ("spectral.witness_independent",),
    "harmonic.hermitian_s": ("harmonic.build_hermitian",),
    "harmonic.mub_decomposition_s": ("harmonic.mub_decomposition",),
    "harmonic.delb_mub_s": ("harmonic.delb_mub",),
    "harmonic.nk_s": ("harmonic.nearly_kahler_checks",),
    "harmonic.probe_s": ("harmonic.metric_independence_probe",),
    "pipeline.analyze_s": ("pipeline.analyze",),
    "pipeline.verify_s": ("pipeline.verification_checks",),
    "pipeline.result_document_s": ("pipeline.result_document",),
    "docio.parse_s": ("docio.parse_document", "docio.to_spec"),
    "docio.render_s": ("docio.render",),
    "cli.main_s": ("cli.main",),
}

COUNTED = {"spectral.er_page_calls": "spectral.er_page"}

KERNEL_COUNTERS = ("kernel.rref_calls", "kernel.rref_cells",
                   "kernel.rref_max_rows", "kernel.rref_max_cols",
                   "kernel.max_coeff_bits", "kernel.matmul_calls",
                   "kernel.matmul_cells")


def metric_units():
    """(name, unit) of every per-layer metric a traced pass yields."""
    out = []
    for name in KERNEL_COUNTERS:
        out.append((name, "bits" if name.endswith("_bits") else "count"))
    out += [(name, "s") for name in TIMED]
    out += [(name, "count") for name in COUNTED]
    out += [(layer + ".self_s", "s") for layer in LAYERS]
    return out


def _max_bits(rows):
    best = 0
    for row in rows:
        for e in row:
            b = max(abs(e.xn).bit_length(), abs(e.yn).bit_length(),
                    e.dn.bit_length())
            if b > best:
                best = b
    return best


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.installed = []
        self.reset()

    def reset(self):
        """Drop the spans and counters recorded so far."""
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_dur = array("d")
        self.stack = [-1]
        self.overhead = 0.0
        self.counts = dict.fromkeys(KERNEL_COUNTERS, 0)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- kernel counters, recorded outside the timed interval ---------------

    def _after_rref(self, args, result):
        rows, ncols = args[0], args[1]
        c = self.counts
        c["kernel.rref_calls"] += 1
        c["kernel.rref_cells"] += len(rows) * ncols
        c["kernel.rref_max_rows"] = max(c["kernel.rref_max_rows"], len(rows))
        c["kernel.rref_max_cols"] = max(c["kernel.rref_max_cols"], ncols)
        c["kernel.max_coeff_bits"] = max(c["kernel.max_coeff_bits"],
                                         _max_bits(result[0]))

    def _after_matmul(self, args, result):
        c = self.counts
        c["kernel.matmul_calls"] += 1
        c["kernel.matmul_cells"] += len(args[0]) * args[2]

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            idx = len(self.sp_name)
            self.sp_name.append(nid)
            self.sp_parent.append(self.stack[-1])
            self.sp_start.append(0.0)
            self.sp_end.append(0.0)
            self.sp_dur.append(0.0)
            self.stack.append(idx)
            inner0 = self.overhead
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                self.stack.pop()
                if ok and after is not None:
                    after(args, result)
                self.sp_start[idx] = start
                self.sp_end[idx] = end
                self.sp_dur[idx] = end - start - (self.overhead - inner0)
                self.overhead += (start - t_in) + (clock() - end)

        return traced

    def _replace(self, owner, attr, new):
        self.installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, mods):
        """Wrap the public functions and methods of the modules ``mods``
        (layer name -> module)."""
        originals = {}
        kernel = mods["kernel"]
        originals[id(kernel.rref)] = self.wrap("kernel.rref", kernel.rref,
                                               self._after_rref)
        originals[id(kernel.matmul)] = self.wrap(
            "kernel.matmul", kernel.matmul, self._after_matmul)
        for layer in LAYERS[1:]:
            mod = mods[layer]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if callable(value) and getattr(value, "__module__", None) \
                        == mod.__name__ and not isinstance(value, type):
                    originals[id(value)] = self.wrap(
                        "%s.%s" % (layer, attr), value)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(layer, value)
        # rebind each wrapped function wherever acdol holds it by name
        for layer in LAYERS:
            mod = mods[layer]
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    self._replace(mod, attr, originals[id(value)])

    def _wrap_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and not (layer == "linalg"
                                             and attr in _OPERATORS):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(value, (classmethod, staticmethod)):
                self._replace(cls, attr,
                              type(value)(self.wrap(name, value.__func__)))
            elif callable(value) and not isinstance(value, type):
                self._replace(cls, attr, self.wrap(name, value))

    def uninstall(self):
        for owner, attr, value in reversed(self.installed):
            setattr(owner, attr, value)
        self.installed = []

    # -- metrics ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        names = self.names
        group_bits = {}
        for bit, (metric, members) in enumerate(TIMED.items()):
            for member in members:
                group_bits[member] = group_bits.get(member, 0) | (1 << bit)
        timed = dict.fromkeys(TIMED, 0.0)
        metric_of_bit = list(TIMED)
        self_s = {layer: 0.0 for layer in LAYERS}
        n = len(self.sp_name)
        covered = [0] * n  # groups open among each span's ancestors
        child_s = [0.0] * n
        calls = {name: 0 for name in COUNTED.values()}
        for i in range(n):
            name = names[self.sp_name[i]]
            parent = self.sp_parent[i]
            if parent >= 0:
                pname = names[self.sp_name[parent]]
                covered[i] = covered[parent] | group_bits.get(pname, 0)
                child_s[parent] += self.sp_dur[i]
            bits = group_bits.get(name, 0) & ~covered[i]
            while bits:
                low = bits & -bits
                timed[metric_of_bit[low.bit_length() - 1]] += self.sp_dur[i]
                bits ^= low
            if name in calls:
                calls[name] += 1
        for i in range(n):
            layer = names[self.sp_name[i]].split(".", 1)[0]
            self_s[layer] += self.sp_dur[i] - child_s[i]
        out = dict(self.counts)
        out.update(timed)
        for metric, span in COUNTED.items():
            out[metric] = calls[span]
        for layer in LAYERS:
            out[layer + ".self_s"] = self_s[layer]
        return out

    def write_spans(self, path):
        """The recorded spans as gzipped tab-separated lines, in call order;
        times in microseconds from the first span's start."""
        t0 = self.sp_start[0] if len(self.sp_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\tduration_us\n")
            for i in range(len(self.sp_name)):
                fh.write("%d\t%s\t%.1f\t%.1f\t%d\t%.1f\n" % (
                    i, self.names[self.sp_name[i]],
                    (self.sp_start[i] - t0) * 1e6, (self.sp_end[i] - t0) * 1e6,
                    self.sp_parent[i], self.sp_dur[i] * 1e6))
