"""Seeded mutations of every artifact that a subcommand reads back.

Each (artifact, reading subcommand) pair runs the subcommand on copies of its
inputs from one small ``run --synthetic``, with the artifact mutated: a cell
replaced, a column dropped, a row duplicated, every row removed or the file
truncated for a CSV; a key deleted, a leaf retyped or the file truncated for
a JSON file. Each run ends in a data error (exit 3) or, where the reader lets
the mutated value through, in success (exit 0); never in a traceback (exit 1).
"""

import csv
import io
import json
import random
import shutil

import pytest

from stresstwin.cli import EXIT_DATA, EXIT_OK, main

PAIRS = [
    ("baseline.json", "features"),
    ("features.csv", "label"),
    ("features.csv", "simulate"),
    ("labeled.csv", "train"),
    ("labeled.csv", "eval"),
    ("labeled.csv", "explain"),
    ("labeled.csv", "report"),
    ("model.json", "eval"),
    ("model.json", "explain"),
    ("model.json", "report"),
    ("model.json", "simulate"),
    ("split.json", "eval"),
    ("split.json", "explain"),
]
MUTATIONS = 25  # per pair

# the artifacts each subcommand reads from --out-dir
INPUTS = {
    "features": ("baseline.json",),
    "label": ("features.csv",),
    "simulate": ("features.csv", "model.json"),
    "train": ("labeled.csv",),
    "eval": ("labeled.csv", "model.json", "split.json"),
    "explain": ("labeled.csv", "model.json", "split.json"),
    "report": ("labeled.csv", "model.json"),
}

# few trees and a short simulation keep each subcommand run in tens of milliseconds
SMALL_CONFIG = {"n_trees": 4, "sim_max_duration_s": 60.0}

CELLS = ["", "abc", "nan", "inf", "-inf", "-5", "0", "7", "2.5", "1e308", "TRUE", "None", " 1", "1,2"]
LEAVES = [None, True, "abc", [], {}, -1, 2.5, float("nan"), 10**30]
CSV_KINDS = ("cell", "cell", "cell", "column", "row", "empty", "truncate")
JSON_KINDS = ("key", "leaf", "leaf", "truncate")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    config = out / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert main(["run", "--synthetic", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    return out


def _mutate_csv(text: str, kind: str, rng: random.Random) -> str:
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    header, *rows = list(csv.reader(io.StringIO(text)))
    if kind == "cell":
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice(CELLS + [rng.choice(rng.choice(rows))])
    elif kind == "column":
        index = rng.randrange(len(header))
        for row in (header, *rows):
            del row[index]
    elif kind == "row":
        index = rng.randrange(len(rows))
        rows.insert(index + 1, list(rows[index]))
    else:
        rows = []
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _json_type(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _slots(node):
    """(container, key) of every value below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _slots(value)


def _mutate_json(text: str, kind: str, rng: random.Random) -> str:
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    payload = json.loads(text)
    slots = list(_slots(payload))
    if kind == "key":
        container, key = rng.choice([slot for slot in slots if isinstance(slot[0], dict)])
        del container[key]
    else:
        container, key = rng.choice([slot for slot in slots if not isinstance(slot[0][slot[1]], (dict, list))])
        old = _json_type(container[key])
        container[key] = rng.choice([leaf for leaf in LEAVES if _json_type(leaf) != old])
    return json.dumps(payload)


def _run_mutated(small_run, tmp_path, artifact, step, number) -> int:
    rng = random.Random(f"{artifact}:{step}:{number}")
    out = tmp_path / str(number)
    out.mkdir()
    for name in INPUTS[step]:
        shutil.copy(small_run / name, out / name)
    text = (small_run / artifact).read_text()
    if artifact.endswith(".csv"):
        text = _mutate_csv(text, CSV_KINDS[number % len(CSV_KINDS)], rng)
    else:
        text = _mutate_json(text, JSON_KINDS[number % len(JSON_KINDS)], rng)
    (out / artifact).write_text(text)
    argv = [step, "--out-dir", str(out), "--config", str(small_run / "config.json")]
    if step in ("features", "simulate"):
        argv += ["--data-dir", str(small_run / "synthetic_records"), "--clean-record", "S00"]
    return main(argv)


@pytest.mark.parametrize(("artifact", "step"), PAIRS, ids=[f"{a}-{s}" for a, s in PAIRS])
def test_mutated_artifact_exits_0_or_3(small_run, tmp_path, capsys, artifact, step):
    for number in range(MUTATIONS):
        code = _run_mutated(small_run, tmp_path, artifact, step, number)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_DATA) and "Traceback" not in err, (number, code, err)
