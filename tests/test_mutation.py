"""Structural mutations of the CLI's inputs, each run through `cli.main` in process against one contract.

The contract: `cli.main` returns 0 or 1 and raises nothing; on 1, stderr is exactly one line,
`cavlab: error: ...`, stdout is empty, and no output file and no manifest is written. The mutations are a
fixed list, the same on every run. This module holds the policy artifact file that `imitate-eval` reads;
the version-2 policy line of the RSU wire has its own list in test_rsu.py.
"""

import json
import zlib

import pytest

from cavlab.cli import main
from merge_fixture import ZONE, merge_log

KINDS = {"bool": True, "string": "x", "null": None, "list": [], "object": {}}
TOP = ("format_version", "model", "encoder", "params", "checksum")
MODEL = ("input_dim", "output_dim", "hidden_dim", "seed")
ENCODER = ("k", "v_norm", "d_norm")
PARAMS = ("wx", "wh", "b", "wy", "by")
HUGE = 10**400  # 401 digits: above any float, below the 4,300-digit limit of Python's int parsing


def run_cli(*args):
    return main([str(a) for a in args])


def signed(doc):
    """`doc` under a recomputed version-1 checksum: the CRC32 of the canonical JSON of the rest."""
    payload = {key: value for key, value in doc.items() if key != "checksum"}
    return {**payload, "checksum": zlib.crc32(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())}


def _at(path, edit):
    """A mutation that applies `edit(node, last)` to the node holding the entry at `path` of the document."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        edit(node, path[-1])
        return doc
    return mutate


def _set(path, value):
    return _at(path, lambda node, key: node.__setitem__(key, value))


def _drop(path):
    return _at(path, lambda node, key: node.pop(key))


def _name(path):
    return ".".join(str(key) for key in path)


ENTRIES = ([(key,) for key in TOP] + [("model", key) for key in MODEL] + [("encoder", key) for key in ENCODER]
           + [("params", name, 0) for name in PARAMS])  # the first entry of each param

# (name, mutation of the document); each runs as it is and under a recomputed checksum
DOC_MUTATIONS = (
    [(f"{_name(path)}-{kind}", _set(path, value)) for path in ENTRIES for kind, value in KINDS.items()]
    + [(f"{_name(path)}-huge", _set(path, HUGE)) for path in
       [("format_version",), ("checksum",), ("model", "hidden_dim"), ("model", "seed"), ("encoder", "k"),
        ("encoder", "v_norm"), ("params", "by", 0)]]
    + [(f"{_name(path)}-{token}", _set(path, value)) for token, value in
       (("nan", float("nan")), ("infinity", float("inf"))) for path in
       [("params", "wx", 0), ("encoder", "v_norm"), ("model", "seed"), ("checksum",)]]
    + [(f"drop-{_name(path)}", _drop(path)) for path in
       [*((key,) for key in TOP), ("model", "seed"), ("encoder", "k"), ("params", "wx")]]
    + [(f"extra-{_name(path)}", _set(path, value)) for path, value in
       [(("note",), "x"), (("model", "depth"), 2), (("encoder", "slots"), 1), (("params", "extra"), [1.0])]]
)

# (name, mutation of the file's bytes)
TEXT_MUTATIONS = [
    ("empty", lambda text: b""),
    ("truncated-1", lambda text: text[:1]),
    ("truncated-half", lambda text: text[: len(text) // 2]),
    ("truncated-last-brace", lambda text: text[:-2]),
    ("not-utf8-first-byte", lambda text: b"\xff" + text[1:]),
    ("not-utf8-in-a-key", lambda text: text.replace(b'"model"', b'"mod\x80l"')),
    ("nested-too-deep", lambda text: b"[" * 5000 + text + b"]" * 5000),
    ("nested-model", lambda text: text.replace(b'"model": {', b'"model": ' + b"[" * 5000 + b"]" * 5000 + b', "x": {')),
    ("nan-file", lambda text: b"NaN"),
    ("top-level-list", lambda text: b"[" + text.strip() + b"]"),
]

CASES = ([(f"{name}-unsigned", mutate, False) for name, mutate in DOC_MUTATIONS]
         + [(f"{name}-signed", mutate, True) for name, mutate in DOC_MUTATIONS if not name.startswith("checksum")]
         + [(name, mutate, None) for name, mutate in TEXT_MUTATIONS])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A small dataset and the version-1 artifact file imitate-train writes for it."""
    root = tmp_path_factory.mktemp("mutation")
    (root / "log.xml").write_text(merge_log(3, seed=11))
    assert run_cli("ingest", "--xml", root / "log.xml", "--ego", "ego*", "--zone-x-min", ZONE[0],
                   "--zone-x-max", ZONE[1], "--zone-lane-prefix", ZONE[2], "--out", root / "data.jsonl") == 0
    assert run_cli("imitate-train", "--dataset", root / "data.jsonl", "--epochs", 1, "--hidden", 3,
                   "--artifact-out", root / "p.json") == 0
    return root


def test_the_valid_artifact_evaluates(valid, tmp_path):
    assert run_cli("imitate-eval", "--artifact", valid / "p.json", "--dataset", valid / "data.jsonl",
                   "--csv-out", tmp_path / "e.csv") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv", "e.csv.manifest.json"]


@pytest.mark.parametrize("name, mutate, sign", CASES, ids=[name for name, _, _ in CASES])
def test_mutated_artifact_file_keeps_the_contract(valid, tmp_path, capsys, name, mutate, sign):
    text = (valid / "p.json").read_bytes()
    if sign is None:
        mutated = mutate(text)
    else:
        doc = mutate(json.loads(text))
        mutated = json.dumps(signed(doc) if sign else doc).encode()  # writes the NaN and Infinity tokens
    artifact = tmp_path / "in" / "p.json"
    artifact.parent.mkdir()
    artifact.write_bytes(mutated)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    code = run_cli("imitate-eval", "--artifact", artifact, "--dataset", valid / "data.jsonl", "--csv-out", out / "e.csv")
    captured = capsys.readouterr()
    assert code in (0, 1)
    if name.startswith("extra-"):
        assert code == 1, "an artifact with a key its format does not define is refused"
    if code == 1:
        assert captured.err.startswith(f"cavlab: error: {artifact}: ") and captured.err.count("\n") == 1
        assert captured.err.endswith("\n") and captured.out == ""
        assert list(out.iterdir()) == []
