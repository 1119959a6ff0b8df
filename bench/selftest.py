"""Self-test of the benchmark.

    python3 bench/selftest.py        # from the repository root; exit 0 when every line is ok

It runs every workload at the tiny size, plain and traced, and then feeds each
output check a deliberately corrupted output (a flipped Q value, a dropped
positive, a perturbed artifact param, a wrong `served` count) to show that
the check rejects it. Each check is first run on the clean output, so a
rejection comes from the corruption and not from the output being bad anyway.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SEED = 5
TINY = run.SIZES["tiny"]
SCRATCH = os.path.join(run.WORK, "selftest")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def first_round(workload: str) -> tuple[dict, dict]:
    """The spec and the result of the last run's first repetition."""
    docs = []
    for name in ("spec.json", "result.json"):
        with open(os.path.join(run.WORK, workload, "r1", name)) as fh:
            docs.append(json.load(fh))
    return docs[0], docs[1]


def flip_q(path: str) -> None:
    """Flip the top exponent bit of a Q value in (0, 1), as a memory fault would."""
    with open(path) as fh:
        doc = json.load(fh)
    row = next(e["q"] for e in doc["entries"] if any(0.0 < abs(q) < 1.0 for q in e["q"]))
    i = next(i for i, q in enumerate(row) if 0.0 < abs(q) < 1.0)
    bits = struct.unpack("<Q", struct.pack("<d", row[i]))[0] ^ (1 << 62)
    row[i] = struct.unpack("<d", struct.pack("<Q", bits))[0]
    with open(path, "w") as fh:
        json.dump(doc, fh)


def corrupt_sim() -> None:
    spec, res = first_round("sim")
    ctx = run.prepare_sim(SEED, TINY, SCRATCH)[1]
    expect(run.check_sim(spec, ctx, res) == [], "sim: checks pass on the clean outputs")
    before = {k: checks.sha256(p) for k, p in res["outputs"].items()}
    flip_q(next(p for k, p in res["outputs"].items() if k.startswith("qtable.")))
    errors = run.check_sim(spec, ctx, res)
    expect(any("|Q|" in e for e in errors), "sim: a flipped Q value breaks the |Q| <= R_max/(1-gamma) check")
    after = {k: checks.sha256(p) for k, p in res["outputs"].items()}
    expect(checks.same_hashes(before, after) != [], "sim: a flipped Q value breaks the repeat-hash check")


def corrupt_ingest() -> None:
    spec, res = first_round("ingest")
    ctx = {"log": gen.fcd_log(SEED, TINY["ingest_egos"]), "feature_samples": TINY["feature_samples"],
           "seed": SEED}
    expect(run.check_ingest(spec, ctx, res) == [], "ingest: checks pass on the clean outputs")
    path = res["outputs"]["dataset"]
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[1:])
    errors = run.check_ingest(spec, ctx, res)
    expect(any(e.startswith("positives") for e in errors), "ingest: a dropped positive breaks the planted-mix check")


def corrupt_imitate() -> None:
    spec, res = first_round("imitate")
    ctx = run.prepare_imitate(SEED, TINY, SCRATCH)[1]
    res.update(failed=0, failures=[])
    expect(run.check_imitate(spec, ctx, res) == [], "imitate: checks pass on the clean outputs")
    path = res["outputs"]["artifact"]
    with open(path) as fh:
        doc = json.load(fh)
    doc["params"]["wy"][0] += 0.5
    with open(path, "w") as fh:
        json.dump(doc, fh)
    errors = run.check_imitate(spec, ctx, res)
    expect(any("checksum" in e for e in errors), "imitate: a perturbed artifact param breaks the checksum check")


def corrupt_rsu() -> None:
    spec, res = first_round("rsu")
    expect(run.check_rsu(spec, {}, res) == [], "rsu: checks pass on a clean repetition")
    errors = run.check_rsu(spec, {}, dict(res, served=res["served"] + 1))
    expect(any("served=" in e for e in errors), "rsu: a wrong served count breaks the served check")
    with open(spec["artifact"]) as fh:
        reference = checks.artifact_params(json.load(fh))
    perturbed = {k: v.copy() for k, v in reference.items()}
    expect(checks.fetched_params(perturbed, reference), "rsu: an exact copy of the served params passes")
    perturbed["wh"][3, 4] += 1e-9
    expect(not checks.fetched_params(perturbed, reference),
           "rsu: a perturbed artifact param breaks the in-zone params check")


CORRUPT = {"sim": corrupt_sim, "ingest": corrupt_ingest, "imitate": corrupt_imitate, "rsu": corrupt_rsu}


def main() -> int:
    if not os.path.isdir(os.path.join(run.SRC, "cavlab")):
        print(f"selftest: no cavlab sources under {run.SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    for workload, corrupt in CORRUPT.items():
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        result = run.run(workload, SEED, 0, False, "tiny")
        expect(result["correct"] and result["attempted"] > 0 and set(result["metrics"]) == set(run.END_TO_END),
               f"{workload}: tiny run is correct and reports every end-to-end metric "
               f"({result['failed']}/{result['attempted']} operations failed)")
        corrupt()
        result = run.run(workload, SEED, 0, True, "tiny")
        expect(result["correct"] and set(result["metrics"]) == set(run.PER_LAYER),
               f"{workload}: tiny traced run is correct and reports every per-layer metric")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"selftest: {len(failures)} failed" if failures else "selftest: all ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
