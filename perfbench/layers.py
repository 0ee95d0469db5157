"""Per-layer metrics for ``run.py --trace 1``, timed from outside the library.

Three sources, all from the benchmark's own files:

* Spans.  ``Tracer`` replaces each public library function listed in
  ``TRACED`` by a wrapper that records its inclusive and self time, in every
  ``sphere_distal`` module that holds a reference to it, so calls the
  library makes internally are seen too.  The workload's operations run
  once untraced and once traced; the time difference is the tracing
  overhead, and the spans give each layer's share of operation time.
* Outcomes of the traced operations (certificate steps, oracle hits), and
  of the known-defect probes (``workloads.DEFECT_PROBES``): the share of
  each probe row that still shows its defect.
* Probes.  The benchmark calls each layer's public functions itself on the
  first round of every workload's inputs for this seed, so every per-call
  cost is measured in every traced run on the same inputs.
"""

from __future__ import annotations

import collections
import functools
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads

# public functions traced, by layer (module)
TRACED = {
    "linalg": ("normalize_to_unimodular", "real_schur_2x2", "eigenvalues_3x3", "spectral_summary",
               "contraction_subspace"),
    "sphere": ("apply_many", "orbit", "affine_inverse_image"),
    "distality": ("classify_projective_distality", "semigroup_distality_test", "proximal_pair_search",
                  "replay_certificate"),
    "fixed_points": ("find_fixed_point_real_positive", "find_fixed_point_complex",
                     "minus_id_period2_points", "choose_nondistal_witness",
                     "isometry_even_sphere_witness", "resolvent_norm"),
    "serialize": ("load_matrix", "load_semigroup_spec", "matrix_to_json", "certificate_to_json",
                  "verdict_to_json", "fixed_point_to_json", "periodic_points_to_json", "orbit_to_csv",
                  "run_report", "dump_json"),
    "cli": ("build_parser", "main"),
}
WASTED_STEP_CERTS = 12  # certificates traced with orbit for the wasted-step share
IMPORT_REPEATS = 3
# per-layer metric of each known defect: the share of its probes showing it
DEFECT_METRICS = {
    "unproven-pair": "distality.cert_unproven_frac",
    "singular-reject": "linalg.singular_reject_frac",
    "jordan-pair-error": "distality.jordan_pair_error_frac",
}
log = functools.partial(print, file=sys.stderr)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Tracer:
    """Span recorder that wraps library functions in place while active."""

    def __init__(self):
        self.inclusive = collections.defaultdict(float)
        self.self_time = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.oracle_hits = 0
        self._stack: list[list] = []  # [name, start, child seconds]
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                self.self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if all(f[0] != name for f in stack):
                    self.inclusive[name] += dur
                self.calls[name] += 1
            if name == "distality.proximal_pair_search" and result is not None:
                self.oracle_hits += 1
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "sphere_distal"]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"sphere_distal.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".")[0] == layer)


def _median_call(fn, inputs, repeat=1) -> float:
    """Median seconds of one ``fn(*args)`` call over inputs and repeats."""
    times = []
    for args in inputs:
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fresh_process(args: list[str]) -> subprocess.CompletedProcess:
    """One fresh interpreter that imports the library from this checkout."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120, check=False)


def _cold_cli_times(argvs) -> list[float]:
    times = []
    for argv in argvs:
        t0 = time.perf_counter()
        proc = _fresh_process(["-m", "sphere_distal.cli", *argv])
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold CLI run {argv} exited with {proc.returncode}: {proc.stderr}")
    return times


def _import_times() -> list[float]:
    code = "import time; t = time.perf_counter(); import sphere_distal; print(time.perf_counter() - t)"
    return [float(_fresh_process(["-c", code]).stdout) for _ in range(IMPORT_REPEATS)]


def _wasted_step_frac(sd, certs) -> float:
    """Share of certificate steps taken after the pair first falls below eps."""
    eps = sd.DEFAULT_CONFIG.oracle.eps
    steps = wasted = 0
    for T, cert in certs:
        m = sd.AffineSphereMap.create(T)
        xs = sd.orbit(m, cert.x, cert.steps).points
        ys = sd.orbit(m, cert.y, cert.steps).points
        below = np.flatnonzero(np.linalg.norm(xs - ys, axis=1) < eps)
        if below.size:  # unproven pairs never get there; cert_unproven_frac counts them
            steps += cert.steps
            wasted += cert.steps - int(below[0])
    return wasted / steps if steps else 0.0


def probes(sd, seed: int, workdir: str) -> dict:
    """Per-call costs of each layer on the first round of every workload."""
    first = {}
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    for name in workloads.WORKLOADS:
        first[name] = workloads.build(name, seed, probe_dir)[0]
    cfg = sd.DEFAULT_CONFIG
    rng = np.random.default_rng([seed, 99])
    out = {}

    certify = first["certify"]
    matrices = [op.data["matrix"] for op in certify] + [
        G for op in first["semigroup-distal"] + first["semigroup-unbounded"] for G in op.data["generators"]
    ] + [op.data["matrix"] for op in first["cli-solve"]]
    units = [sd.normalize_to_unimodular(T).unit for T in matrices]

    out["linalg.spectral_summary_us"] = 1e6 * _median_call(
        lambda T: sd.linalg.spectral_summary(sd.normalize_to_unimodular(T).unit), [(T,) for T in matrices], 3)
    out["linalg.real_schur_2x2_us"] = 1e6 * _median_call(
        sd.real_schur_2x2, [(U,) for U in units if U.shape[0] == 2], 3)
    out["linalg.contraction_subspace_us"] = 1e6 * _median_call(sd.contraction_subspace, [(U,) for U in units], 3)

    stack_maps = [sd.AffineSphereMap.create(U) for U in units[:: max(1, len(units) // 8)]]
    t0 = time.perf_counter()
    for m in stack_maps:
        X = rng.standard_normal((128, m.dim))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        for _ in range(200):
            X = sd.sphere.apply_many(m, X)
    out["sphere.apply_many_point_ns"] = 1e9 * (time.perf_counter() - t0) / (len(stack_maps) * 200 * 128)

    def cases(command, point):
        return [(sd.AffineSphereMap.create(op.data["matrix"], op.data["a"]), op.data[point])
                for op in first["cli-solve"] if op.expect == command]

    out["sphere.orbit_step_us"] = 1e6 * _median_call(
        lambda m, x: sd.orbit(m, x, workloads.ORBIT_STEPS), cases("orbit", "x"), 3) / workloads.ORBIT_STEPS
    out["sphere.inverse_image_us"] = 1e6 * _median_call(sd.affine_inverse_image, cases("inverse-image", "y"), 5)

    distal = [op.data["matrix"] for op in certify if op.expect == "distal"]
    not_distal = [op.data["matrix"] for op in certify if op.expect == "not-distal"]
    out["distality.classify_distal_us"] = 1e6 * _median_call(
        sd.classify_projective_distality, [(T,) for T in distal], 3)
    verdicts, times = [], []
    for T in not_distal:
        t0 = time.perf_counter()
        verdicts.append((T, sd.classify_projective_distality(T)))
        times.append(time.perf_counter() - t0)
    out["distality.classify_not_distal_ms"] = 1e3 * statistics.median(times)

    replays = [(v.certificate, {"matrix": T}) for T, v in verdicts]
    lengths = []
    for op in first["semigroup-unbounded"]:
        gens = op.data["generators"]
        v = sd.semigroup_distality_test(sd.SemigroupSpec(tuple(gens)))
        replays.append((v.certificate, {"generators": gens}))
        lengths.append(len(v.certificate.word))
    out["distality.unbounded_word_len_mean"] = float(np.mean(lengths))
    t0 = time.perf_counter()
    for cert, kwargs in replays:
        sd.replay_certificate(cert, **kwargs)
    out["distality.replay_ms"] = 1e3 * (time.perf_counter() - t0) / len(replays)

    specs = [op.data["generators"] for op in first["semigroup-distal"]]
    oracle_maps = [sd.AffineSphereMap.create(G) for gens in specs[:2] for G in gens]
    out["distality.oracle_ms"] = 1e3 * _median_call(sd.proximal_pair_search, [(m,) for m in oracle_maps])
    words, t0 = 0, time.perf_counter()
    for gens in specs:
        v = sd.semigroup_distality_test(sd.SemigroupSpec(tuple(gens), sample_count=0))
        words += v.certificate.parameters["words_checked"]
    sweep = time.perf_counter() - t0
    out["distality.sweep_ms"] = 1e3 * sweep / len(specs)
    out["distality.word_us"] = 1e6 * sweep / words

    fixed = [op for op in first["cli-solve"] if op.expect == "fixed-point"]
    out["fixed_points.solve_us"] = 1e6 * _median_call(lambda op: _solve(sd, op), [(op,) for op in fixed], 5)
    witness = [op.data["matrix"] for op in first["cli-solve"] if op.expect == "witness"]
    out["fixed_points.witness_us"] = 1e6 * _median_call(
        lambda T: (sd.choose_nondistal_witness if T.shape[0] == 2 else sd.isometry_even_sphere_witness)(T),
        [(T,) for T in witness], 3)
    out["fixed_points.resolvent_norm_us"] = 1e6 * _median_call(
        sd.resolvent_norm, [(op.data["matrix"], op.data["a"], 0.0) for op in fixed], 20)

    out["serialize.report_us"] = 1e6 * _median_call(
        lambda v: sd.serialize.dump_json(sd.serialize.run_report(
            ["classify"], cfg, sd.serialize.verdict_to_json(v), 0.0, sd.__version__)),
        [(v,) for _, v in verdicts], 5)

    argvs = [op.data["argv"] for op in first["cli-solve"]]
    out["cli.parse_us"] = 1e6 * _median_call(
        lambda argv: sd.cli.build_parser().parse_args(argv), [(a,) for a in argvs], 3)
    out["cli.main_ms"] = 1e3 * _median_call(lambda argv: workloads.call_cli(sd, argv), [(a,) for a in argvs], 3)

    out["cli.import_s"] = statistics.median(_import_times())
    one_per_command = list({op.expect: op.data["argv"] for op in first["cli-solve"]}.values())
    out["cli.cold_process_ms_p50"] = 1e3 * statistics.median(_cold_cli_times(one_per_command))
    return out


def defect_shares(sd, seed: int) -> dict:
    """Share of each known-defect probe row that still shows its defect."""
    run_op = workloads.runner("certify")
    shown = collections.Counter()
    for op in workloads.build_defect_probes(seed):
        outcome = run_op(sd, op)
        if outcome.reason == op.data["defect"]:
            shown[op.data["defect"]] += 1
        elif outcome.reason is not None:
            shown[f"other:{outcome.reason}"] += 1
    log(f"# known-defect probes showing their defect: {dict(sorted(shown.items()))} "
        f"of {', '.join(f'{n} {kind}' for kind, _, n in workloads.DEFECT_PROBES)}")
    return {DEFECT_METRICS[defect]: shown[defect] / n for _, defect, n in workloads.DEFECT_PROBES}


def _solve(sd, op):
    """The library solver for the fixed-point case's eigenvalue class."""
    T, a = op.data["matrix"], op.data["a"]
    if op.kind == "fixed-point/minus-id":
        return sd.minus_id_period2_points(a / abs(T[0, 0]))
    if op.kind == "fixed-point/complex":
        return sd.find_fixed_point_complex(T, a)
    return sd.find_fixed_point_real_positive(T, a)


def traced_run(sd, args, loop, workdir: str):
    """Untraced then traced pass over the same operations, then the probes."""
    ops, _, lat, ref, _ = loop.timed(seconds=args.seconds / 2)
    with Tracer() as tracer:
        ops_t, outcomes, lat_t, ref_t, _ = loop.timed(count=len(ops))
    op_time = sum(lat_t)
    # both passes at the nominal host speed, so the overhead is not the
    # host's drift between them
    plain, traced = sum(loop.normalized(lat, ref)), sum(loop.normalized(lat_t, ref_t))

    def share(name):
        return tracer.inclusive[name] / op_time

    certs = [(op, o.info["cert"]) for op, o in zip(ops_t, outcomes) if "cert" in o.info]
    first_certs = list({id(op): (op.data["matrix"], c) for op, c in certs}.values())[:WASTED_STEP_CERTS]
    oracle_calls = tracer.calls["distality.proximal_pair_search"]
    values = {
        "distality.cert_steps_mean": float(np.mean([c.steps for _, c in certs])) if certs else 0.0,
        "distality.cert_wasted_step_frac": _wasted_step_frac(sd, first_certs),
        "distality.oracle_hit_frac": tracer.oracle_hits / oracle_calls if oracle_calls else 0.0,
        "distality.oracle_share": share("distality.proximal_pair_search"),
        "distality.pair_iter_share": share("sphere.apply_many"),
        "distality.sweep_share": tracer.self_time["distality.semigroup_distality_test"] / op_time,
        "cli.build_parser_share": share("cli.build_parser"),
    }
    for layer in TRACED:
        values[f"{layer}.self_share"] = tracer.layer_self(layer) / op_time
    values["trace.overhead_frac"] = traced / plain - 1.0
    values.update(defect_shares(sd, args.seed))
    values.update(probes(sd, args.seed, workdir))

    log(f"# traced {len(ops_t)} operations: {plain:.2f} s untraced, {traced:.2f} s traced (normalized)")
    if tracer.missing:
        log(f"# not traced (absent from the library): {', '.join(tracer.missing)}")
    top = sorted(tracer.inclusive.items(), key=lambda kv: -kv[1])[:8]
    log("# inclusive share of operation time: "
        + ", ".join(f"{name}={t / op_time:.3f}" for name, t in top))
    if args.workload == "semigroup-distal":
        log(f"# oracle share of semigroup-distal time: {values['distality.oracle_share']:.3f}")
    metrics = {name: {"value": float(v), "unit": unit_of(name)} for name, v in values.items()}
    return ops_t, outcomes, metrics


def unit_of(name: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_ms", "ms"), ("_ms_p50", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count" if name.endswith("_mean") else "frac"
