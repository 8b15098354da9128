"""The layer map: repro modules grouped into the benchmark's layers.

A profiled function belongs to the layer of the longest prefix in
``LAYERS`` that matches its module's dotted name.  Anything that
matches no prefix -- the standard library, builtins, the benchmark's
own files and the repro packages not listed -- is ``other``.
``cProfile`` charges a generator body to the generator's own module, so
the hypervisor engine shows up under ``vmm.hypervisor``, not ``sim``.
"""

import os

#: module prefix -> layer, matched by longest prefix
LAYERS = {
    "repro.sim": "sim",
    "repro.vmm": "vmm.hypervisor",
    "repro.vmm.hypervisor": "vmm.hypervisor",
    "repro.vmm.replay": "vmm.hypervisor",
    "repro.vmm.coordination": "vmm.coordination",
    "repro.core": "core",
    "repro.mitigation": "mitigation",
    "repro.net": "net",
    "repro.net.tcp": "net.tcp",
    "repro.net.pgm": "net.pgm",
    "repro.cloud": "cloud",
    "repro.cloud.ingress": "cloud.ingress",
    "repro.cloud.egress": "cloud.egress",
    "repro.machine": "machine",
    "repro.machine.disk": "machine.disk",
    "repro.machine.fs": "machine.fs",
    "repro.workloads": "workloads",
    "repro.obs": "obs",
}

OTHER = "other"

#: every layer, in report order
LAYER_NAMES = sorted(set(LAYERS.values())) + [OTHER]


def layer_of(module):
    """The layer of a dotted module name (longest matching prefix)."""
    probe = module
    while probe:
        layer = LAYERS.get(probe)
        if layer is not None:
            return layer
        probe = probe.rpartition(".")[0]
    return OTHER


def module_of(filename, src_root):
    """Dotted module name of a source file under ``src_root``, or
    ``None`` for builtins and files outside it."""
    if not filename.endswith(".py"):
        return None
    relative = os.path.relpath(os.path.abspath(filename), src_root)
    if relative.startswith(".."):
        return None
    parts = relative[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def group_by_layer(stats, src_root):
    """Sum ``cProfile`` self time and call counts per layer.

    ``stats`` is ``Profile.stats``: ``(file, line, function) -> (primitive
    calls, calls, self time, cumulative time, callers)``.  Returns
    ``{layer: {"self_s": seconds, "calls": count}}`` over every layer.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES}
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) \
            in stats.items():
        module = module_of(filename, src_root)
        row = layers[OTHER if module is None else layer_of(module)]
        row["self_s"] += self_s
        row["calls"] += calls
    return layers
