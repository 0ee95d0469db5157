"""The byte census: one SHA-256 per output record of the seeded benchmark inputs.

A record is the exact text the library produces for one input:
- ``certify``: the verdict JSON of ``classify_projective_distality``, with the
  ``tolerance=0.0`` replay of a not-distal certificate;
- ``probe``: the same for each defect probe, or the name of the exception it
  raises;
- ``semigroup-unbounded`` and ``semigroup-distal``: the verdict JSON of
  ``semigroup_distality_test``, with the replay of a not-distal certificate;
- ``cli-solve``: the exit code and ``result`` of ``cli.main``, and an orbit's
  CSV, run with relative paths from a temporary working directory.

The inputs come from ``perfbench/workloads.py`` (imported, never changed) at
the seeds in ``SEEDS``.  ``tests/data/census.json`` holds the hashes with the
NumPy version and the machine that wrote them; the bytes depend on both.

    PYTHONPATH=src python tests/census.py --write   # rewrite the file
    PYTHONPATH=src python tests/census.py --diff ../parent   # field by field against a checkout
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402  (the benchmark's input builders)

import sphere_distal as sd  # noqa: E402
import sphere_distal.cli  # noqa: E402,F401  (workloads.call_cli reads sd.cli)
from sphere_distal.serialize import dump_json, verdict_to_json  # noqa: E402

PATH = os.path.join(HERE, "data", "census.json")
SEEDS = (1, 2, 3, 2718)


def platform_key() -> dict:
    """What the bytes depend on besides the code."""
    return {"numpy": np.__version__, "machine": f"{platform.system()}-{platform.machine()}"}


def _verdict(run, replay) -> str:
    try:
        v = run()
    except (ValueError, sd.SphereDistalError) as exc:  # a defect probe's record may be its exception
        return type(exc).__name__
    text = dump_json(verdict_to_json(v))
    if v.verdict is sd.Verdict.NOT_DISTAL:
        text += f"\nreplay {replay(v.certificate)}"
    return text


def _ops(name: str, seed: int, workdir: str = "") -> list:
    return [op for ops in workloads.build(name, seed, workdir) for op in ops]


@contextlib.contextmanager
def _working_directory(path: str):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _cli_records(seed: int):
    with tempfile.TemporaryDirectory() as tmp, _working_directory(tmp):
        for op in _ops("cli-solve", seed, os.curdir):
            code, out, err = workloads.call_cli(sd, op.data["argv"])
            if not out:  # a refused run: its record is the error line
                yield f"exit {code}\n{err}"
                continue
            result = json.loads(out)["result"]
            text = f"exit {code}\n{dump_json(result)}"
            if op.expect == "orbit":
                with open(result["csv"], encoding="utf-8") as fh:
                    text += "\n" + fh.read()
            yield text


def records(seed: int):
    """Yield (key, text) for every record of one seed."""
    for i, op in enumerate(_ops("certify", seed)):
        T = op.data["matrix"]
        yield f"certify/{seed}/{i}", _verdict(
            lambda: sd.classify_projective_distality(T),
            lambda c: sd.replay_certificate(c, matrix=T, tolerance=0.0))
    for i, op in enumerate(workloads.build_defect_probes(seed)):
        T = op.data["matrix"]
        yield f"probe/{seed}/{i}", _verdict(
            lambda: sd.classify_projective_distality(T),
            lambda c: sd.replay_certificate(c, matrix=T, tolerance=0.0))
    for name in ("semigroup-unbounded", "semigroup-distal"):
        for i, op in enumerate(_ops(name, seed)):
            gens = tuple(op.data["generators"])
            yield f"{name}/{seed}/{i}", _verdict(
                lambda: sd.semigroup_distality_test(sd.SemigroupSpec(gens)),
                lambda c: sd.replay_certificate(c, generators=gens, tolerance=0.0))
    for i, text in enumerate(_cli_records(seed)):
        yield f"cli-solve/{seed}/{i}", text


def build() -> dict:
    """{key: SHA-256 of the record} over every seed."""
    return {key: hashlib.sha256(text.encode()).hexdigest()
            for seed in SEEDS for key, text in records(seed)}


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write() -> None:
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump({**platform_key(), "records": build()}, fh, sort_keys=True, indent=1)
        fh.write("\n")


def texts(checkout: str) -> dict:
    """{key: record text} as the census of another ``checkout`` builds them, in a child process."""
    code = ("import json, sys, census; json.dump({k: t for s in census.SEEDS "
            "for k, t in census.records(s)}, open(sys.argv[1], 'w'))")
    path = [os.path.join(checkout, "src"), os.path.join(checkout, "tests")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "texts.json")
        subprocess.run([sys.executable, "-c", code, out], env=env, check=True)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


_KEY = re.compile(r'\s*"(\w+)": ')


def _move(x: str, y: str, csv: bool) -> float:
    """How far the numbers on line ``x`` moved on line ``y``: the number that
    ends the line, or the largest move over the fields of an orbit's CSV row;
    inf if either is text."""
    try:
        if csv:
            old, new = x.split(","), y.split(",")
            return max(abs(float(q) - float(p)) for p, q in zip(old, new)) if len(old) == len(new) else math.inf
        return abs(float(y.split(": ")[-1].rstrip(",")) - float(x.split(": ")[-1].rstrip(",")))
    except ValueError:
        return math.inf


def diff(old: dict, new: dict) -> None:
    """Print each record that differs between ``old`` and ``new``, with the JSON
    fields (or first words, or ``csv`` for an orbit's CSV rows) of the lines
    that differ and how far each moved, then each field's largest move; inf
    marks a change that is not numeric."""
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    print(f"{len(new)} records, {len(changed)} differ")
    worst = defaultdict(float)
    for key in changed:
        a, b = old.get(key, "").splitlines(), new.get(key, "").splitlines()
        moved, name = defaultdict(float), ""
        if len(a) != len(b):
            moved["(line count)"] = math.inf
        for x, y in zip(a, b):
            match = _KEY.match(x)
            name = match.group(1) if match else "csv" if x.startswith("step,") else name or x.split(" ")[0]
            if x != y:
                moved[name] = max(moved[name], _move(x, y, name == "csv"))
            if x == "}":  # the JSON ends: a replay line or an orbit's CSV may follow
                name = ""
        print(f"{key}: " + ", ".join(f"{n} {d:.2g}" for n, d in sorted(moved.items())))
        for n, d in moved.items():
            worst[n] = max(worst[n], d)
    for n, d in sorted(worst.items()):
        print(f"field {n}: moved by at most {d:.2g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {os.path.relpath(PATH)}")
    parser.add_argument("--diff", metavar="CHECKOUT", help="compare every record with another checkout's")
    args = parser.parse_args()
    if args.write:
        write()
        return
    if args.diff:
        diff(texts(args.diff), {k: t for seed in SEEDS for k, t in records(seed)})
        return
    want = load()["records"]
    got = build()
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    print(f"{len(got)} records, {len(differ)} differ")
    for key in differ:
        print(key)


if __name__ == "__main__":
    main()
