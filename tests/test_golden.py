"""The golden corpus: every command in `tests/golden/` still prints what its
file holds, byte for byte but for the masked timing.  A deliberate change
re-pins the files with `PYTHONPATH=src python tests/golden/pin.py`."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("golden_pin", GOLDEN / "pin.py")
pin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin)


def test_the_files_are_the_commands_of_the_corpus():
    assert sorted(p.stem for p in pin.files()) == sorted(pin.name(argv) for argv in pin.COMMANDS)


def test_every_command_prints_its_golden_file(tmp_path):
    # in file-name order, so that `catalan --out` writes the `cone` input first
    differ = []
    for path in pin.files():
        expected = json.loads(path.read_text(encoding="utf-8"))
        got = pin.run(expected["argv"], tmp_path)
        if got != expected:
            differ.append(f"{path.name}\n{pin.diff(expected, got)}")
    assert not differ, "\n".join(differ)
