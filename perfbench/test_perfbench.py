"""Self-tests of the benchmark's generators and harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import collections
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import sphere_distal as sd  # noqa: E402
import sphere_distal.cli  # noqa: E402,F401

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _inputs(name, seed, workdir):
    """The generated inputs with file paths made relative to the workdir."""
    out = []
    for ops in workloads.build(name, seed, str(workdir)):
        for op in ops:
            data = {}
            for key, value in op.data.items():
                if key == "argv":
                    value = [a.replace(str(workdir), "<dir>") for a in value]
                elif key == "generators":
                    value = np.stack(value)
                data[key] = value
            out.append((op.kind, op.expect, data))
    return out


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _inputs(name, 7, tmp_path / "a")
    second = _inputs(name, 7, tmp_path / "b")
    assert len(first) == len(second)
    for (k1, e1, d1), (k2, e2, d2) in zip(first, second):
        assert (k1, e1) == (k2, e2)
        assert d1.keys() == d2.keys()
        assert all(_same(d1[key], d2[key]) for key in d1)
    if name == "cli-solve":
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_new_seed_changes_inputs_but_keeps_mix(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _inputs(name, 1, tmp_path / "a")
    second = _inputs(name, 2, tmp_path / "b")
    assert [(k, e) for k, e, _ in first] == [(k, e) for k, e, _ in second]
    key = "generators" if name.startswith("semigroup") else "matrix"
    assert not any(_same(d1[key], d2[key]) for (_, _, d1), (_, _, d2) in zip(first, second))


def test_certify_mix_per_round():
    for ops in workloads.build("certify", 3, ""):
        assert collections.Counter(op.kind for op in ops) == {
            kind: workloads.CERTIFY_PER_CLASS for kind in workloads.CERTIFY_CLASSES}


def test_defect_probes_are_seeded_and_show_their_defects():
    first, second = workloads.build_defect_probes(4), workloads.build_defect_probes(4)
    assert all(np.array_equal(a.data["matrix"], b.data["matrix"]) for a, b in zip(first, second))
    assert not any(np.array_equal(a.data["matrix"], b.data["matrix"])
                   for a, b in zip(first, workloads.build_defect_probes(5)))
    shares = layers.defect_shares(sd, 4)
    assert set(shares) == set(layers.DEFECT_METRICS.values())
    assert all(share > 0.0 for share in shares.values())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unbounded_generators_are_distal_alone(seed):
    for ops in workloads.build("semigroup-unbounded", seed, ""):
        for op in ops:
            for G in op.data["generators"]:
                assert sd.classify_projective_distality(G).verdict is sd.Verdict.DISTAL


@pytest.mark.parametrize("name", ["certify", "semigroup-unbounded", "cli-solve"])
def test_first_round_passes(name, tmp_path):
    loop = run.Loop(sd, name, workloads.build(name, 5, str(tmp_path)))
    ops, outcomes, _, _, _ = loop.timed(count=len(loop.rounds[0]))
    assert ops == loop.rounds[0]
    assert [o.reason for o in outcomes] == [None] * len(ops)
    assert run.report_outcomes(name, ops, outcomes) == (0, True)


def test_timed_loop_runs_whole_passes(tmp_path):
    loop = run.Loop(sd, "cli-solve", workloads.build("cli-solve", 5, str(tmp_path)))
    ops, _, lat, ref, _ = loop.timed(seconds=0.01)
    assert len(ops) >= len(loop.inputs) and ops == loop.inputs * (len(ops) // len(loop.inputs))
    assert len(lat) == len(ref) == len(ops) and min(ref) > 0.0


def test_normalized_times_divide_out_the_reference_kernel():
    loop = run.Loop(sd, "certify", workloads.build("certify", 5, ""))
    nominal = run.REFERENCE_S
    assert loop.normalized([2.0, 6.0], [2 * nominal, 3 * nominal]) == [1.0, 2.0]
    assert run.percentile([1.0, 4.0, 3.0], 50) == 3.0


def test_cli_repeat_with_other_bytes_is_caught(tmp_path):
    runner = workloads.runner("cli-solve")
    op = workloads.build("cli-solve", 5, str(tmp_path))[0][0]
    assert runner(sd, op).reason is None
    runner.seen[tuple(op.data["argv"])] = "{}"
    assert runner(sd, op).reason == "nondeterministic"


def test_tracer_restores_library_functions():
    before = sd.distality.proximal_pair_search
    with layers.Tracer() as tracer:
        assert sd.distality.proximal_pair_search is not before
        sd.classify_projective_distality(np.diag([2.0, 0.5]))
    assert sd.distality.proximal_pair_search is before
    assert tracer.calls["distality.classify_projective_distality"] == 1
    assert tracer.inclusive["sphere.apply_many"] > 0.0
    assert not tracer.missing


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
