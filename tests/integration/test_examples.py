"""Every example script still imports against the current library and
defines a ``main()``; the two quick ones also run to their closing line."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SCRIPTS = sorted(EXAMPLES.glob("*.py"))


def load(name: str) -> dict:
    # any run_name but "__main__" skips the scripts' entry-point guard
    return runpy.run_path(str(EXAMPLES / name), run_name="example")


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_example_imports_and_defines_main(script):
    namespace = load(script.name)
    assert callable(namespace.get("main"))


def closing_line(name: str, capsys) -> str:
    load(name)["main"]()
    return capsys.readouterr().out.rstrip("\n").splitlines()[-1]


def test_quickstart_replicas_agree(capsys):
    assert closing_line("quickstart.py", capsys) == \
        "replicas observed identical virtual arrival times: True"


def test_record_replay_reproduces_the_live_replica(capsys):
    assert closing_line("record_replay.py", capsys) == \
        "Replay reproduced the live replica exactly."
