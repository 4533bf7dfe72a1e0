"""The golden corpus: every command in `tests/golden/` still prints what its
file holds, byte for byte but for the masked timing.  A deliberate change
re-pins the files with `PYTHONPATH=src python tests/golden/pin.py`."""

import json

from golden import pin


def test_the_files_are_the_commands_of_the_corpus():
    assert sorted(p.stem for p in pin.files()) == sorted(pin.name(argv) for argv in pin.COMMANDS)


def test_every_command_prints_its_golden_file(tmp_path):
    # in file-name order, so that `catalan --out` writes the `cone` input first
    pin.write_inputs(tmp_path)
    differ = []
    for path in pin.files():
        expected = pin.load(path.stem)
        got = pin.run(expected["argv"], tmp_path)
        if got != expected:
            differ.append(f"{path.name}\n{pin.diff(expected, got)}")
    assert not differ, "\n".join(differ)


def test_the_corpus_ends_in_every_exit_code_and_shows_every_caps_partial():
    docs = [pin.load(path.stem) for path in pin.files()]
    assert {doc["exit"] for doc in docs} == {0, 1, 2, 3}
    partials = {
        key
        for doc in docs
        if doc["exit"] == 2 and doc["stdout"] != [""]
        for key in json.loads("\n".join(doc["stdout"]))["partial"]
    }
    # flat, subset, ff and group cap
    assert {"flats_per_level", "nbc_counts", "good_primes", "elements_per_layer"} <= partials
