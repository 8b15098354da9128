"""Functions that run as if they lived in a given repro module.

``synthetic("repro.net.synthetic")`` compiles :data:`SOURCE` with that
``__name__``, so a sample taken inside its functions is booked to the
module's layer (``net``).  ``burn`` spends a given amount of process
CPU; ``sample`` takes one sample on the spot by raising ``SIGPROF``,
which a :class:`~repro.prof.profiler.Sampler` in force books to the
``sample`` frame.
"""

SOURCE = '''
import signal
import time


def burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def sample():
    signal.raise_signal(signal.SIGPROF)
'''


def synthetic(module):
    """``burn`` and ``sample`` compiled as functions of ``module``."""
    namespace = {"__name__": module}
    exec(compile(SOURCE, f"<{module}>", "exec"), namespace)
    return namespace
