"""Every function of the package has a profile label of its own.

cProfile names a function by its label, ``(file, first line, name)``,
and its stats table (``Profile.stats``, which ``pstats`` reads) keeps
one entry per label: when two functions share a label, all but one of
them drop out of the table, and per-function or per-module self times
no longer add up to the profiled CPU.
"""

import collections
import cProfile
import pathlib
import types

import repro


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _shared(labels):
    return sorted(label for label, n in
                  collections.Counter(labels).items() if n > 1)


def test_no_two_functions_in_the_source_share_a_label():
    root = pathlib.Path(repro.__file__).parent
    labels = []
    for path in sorted(root.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        labels += [cProfile.label(code) for code in _code_objects(module)]
    assert _shared(labels) == [], \
        "start a nested comprehension on a line of its own"


def test_a_profiled_run_keeps_every_function_apart():
    """Code generated at run time shares labels too: every dataclass-
    generated ``__init__`` is ``<string>:2(__init__)``.  A run that
    builds every kind of packet must profile each function apart."""
    from repro.cloud.scenario import ScenarioSpec
    from repro.net import packet
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=1)
    built = ScenarioSpec.from_dict({"name": "labels", "tenant": [
        {"name": "echo", "count": 1, "workload": "echo", "clients": 1},
        {"name": "web", "count": 1, "workload": "fileserver",
         "clients": 1}]}).build(sim)
    profiler = cProfile.Profile()
    profiler.enable()
    built.run(until=0.5)
    profiler.disable()
    codes = [entry.code for entry in profiler.getstats()
             if not isinstance(entry.code, str)]        # not builtins
    for cls in (packet.Packet, packet.TcpSegment, packet.UdpDatagram,
                packet.PgmDatagram, packet.ReplicaEnvelope):
        assert cls.__init__.__code__ in codes
    assert _shared(cProfile.label(code) for code in codes) == []
