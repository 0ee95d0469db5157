"""Seeded workload generators, operations and their correctness checks.

Every input is built from the workload seed with plain NumPy; the library
only ever receives the finished inputs.  Each workload is a list of
*rounds*: one round holds the workload's full class mix in a fixed,
interleaved order, so the workload has exactly that mix whatever the seed,
and the first (warm-up) operation is always of the same class.  The timed
loop runs whole passes over all rounds, so every input repeats equally
often; there are few enough inputs that each repeats several times in a
run.

An operation returns an ``Outcome``.  ``reason`` names the first check it
failed (None when it passed); any reason is a failed operation.  Inputs
that show a known library defect are not in any timed workload: they are
the ``DEFECT_PROBES``, which every traced run reports on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("certify", "semigroup-distal", "semigroup-unbounded", "cli-solve")


@dataclass
class Op:
    kind: str  # input class, for the mix report
    expect: str  # expected verdict, first-unbounded length or CLI subcommand
    data: dict


@dataclass
class Outcome:
    reason: str | None = None
    info: dict = field(default_factory=dict)


# --- plain NumPy helpers --------------------------------------------------------


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _orthogonal(rng, d: int, proper: bool = True) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q = Q * np.sign(np.diag(R))
    if (np.linalg.det(Q) > 0) != proper:
        Q[:, 0] = -Q[:, 0]
    return Q


def _conj(C: np.ndarray, B: np.ndarray) -> np.ndarray:
    return C @ B @ np.linalg.inv(C)


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _unit(rng, d: int) -> np.ndarray:
    u = rng.standard_normal(d)
    return u / np.linalg.norm(u)


def _stratified(rng, n: int) -> np.ndarray:
    """n draws in [0, 1), one per equal-width stratum, in random order."""
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


# --- certify -------------------------------------------------------------------

CERTIFY_CLASSES = ("distal-2x2", "distal-3x3", "shear-2x2", "jordan-3x3", "split-2x2", "split-3x3")
CERTIFY_PER_CLASS = 5  # per round: 30 operations
CERTIFY_ROUNDS = 4  # 120 inputs: 12 beyond the 90th percentile


def _certify_matrix(rng, kind: str, u: float, alt: bool) -> np.ndarray:
    """One unscaled matrix of the class.

    ``u`` in [0, 1) is the class's stratified parameter; ``alt`` picks the
    improper variant of the 3x3 isometries.
    """
    if kind == "distal-2x2":
        C = _rot(rng.uniform(0, math.pi)) @ np.diag([_loguniform(rng, 1.0, 4.0), 1.0])
        return _conj(C, _rot(0.2 + u * (math.pi - 0.4)))
    if kind == "distal-3x3":
        return _orthogonal(rng, 3, proper=not alt)
    Q2 = _rot(rng.uniform(0, math.pi))
    Q3 = _orthogonal(rng, 3)
    if kind == "shear-2x2":
        c = 10.0 ** (-1.0 + 2.0 * u)  # 0.1 .. 10; below about 0.05 see DEFECT_PROBES
        return Q2 @ np.array([[1.0, c], [0.0, 1.0]]) @ Q2.T
    if kind == "jordan-3x3":
        c = 10.0 ** (-1.0 + 2.0 * u)  # 0.1 .. 10
        return Q3 @ (np.eye(3) + c * np.diag([1.0, 0.0], k=1)) @ Q3.T
    # 2 .. 4: the pair's replay then stays short, so split operations cost
    # about the same and the median, which falls among them, holds still
    lam = 2.0 ** (1.0 + u)
    if kind == "split-2x2":
        return Q2 @ np.diag([lam, 1.0 / lam]) @ Q2.T
    if kind == "split-3x3":
        return Q3 @ np.diag([lam, 1.0, 1.0 / lam]) @ Q3.T
    raise ValueError(kind)


def build_certify(rng) -> list[list[Op]]:
    n = CERTIFY_PER_CLASS * CERTIFY_ROUNDS
    params = {kind: _stratified(rng, n) for kind in CERTIFY_CLASSES}
    rounds = []
    for r in range(CERTIFY_ROUNDS):
        ops = []
        for j in range(CERTIFY_PER_CLASS):
            for kind in CERTIFY_CLASSES:
                i = r * CERTIFY_PER_CLASS + j
                u, alt = float(params[kind][i]), i % 2 == 1
                T = _certify_matrix(rng, kind, u, alt) * 10.0 ** rng.uniform(-3.0, 3.0)
                ops.append(Op(kind, "distal" if kind.startswith("distal") else "not-distal",
                              {"u": u, "alt": alt, "matrix": T}))
        rounds.append(ops)
    return rounds


def run_certify(sd, op: Op) -> Outcome:
    T = op.data["matrix"]
    try:
        v = sd.classify_projective_distality(T)
    except sd.SingularMatrix:
        return Outcome("singular-reject")
    except ValueError:
        if not op.kind.startswith("jordan"):
            raise
        return Outcome("jordan-pair-error")
    info = {"verdict": v.verdict.value, "branch": type(v.certificate).__name__}
    if v.verdict.value != op.expect:
        return Outcome("verdict-mismatch", info)
    cert = v.certificate
    if isinstance(cert, sd.ProximalPair):
        info["cert"] = cert
        if not sd.replay_certificate(cert, matrix=T):
            return Outcome("replay-rejected", info)
        if not cert.separation_final < sd.DEFAULT_CONFIG.oracle.eps:
            return Outcome("unproven-pair", info)
    elif v.verdict.value == "not-distal":
        return Outcome("unexpected-certificate", info)
    return Outcome(None, info)


# --- known-defect probes ------------------------------------------------------------

# Inputs on which the library is known to answer wrongly, kept out of the
# timed certify loop (where each would be a failed operation) and run by
# every traced run instead, which reports the share of each that still
# shows its defect.  Each row is (class, defect, count):
# * near-identity shears, c in 1e-3 .. 0.03: the pair never gets closer
#   than the oracle eps in 2000 steps;
# * 3x3 matrices scaled by 1e-4 .. 1e-8, well-conditioned: the absolute
#   singularity gate rejects them although the verdict is scale-invariant;
# * full 3x3 Jordan blocks: the Jordan-chain pair construction raises
#   ValueError on about a third of them.
DEFECT_PROBES = (
    ("shear-2x2", "unproven-pair", 12),
    ("tiny-3x3", "singular-reject", 12),
    ("jordan-3x3-full", "jordan-pair-error", 12),
)


def build_defect_probes(seed: int) -> list[Op]:
    """The probes for this seed; ``expect`` is the right verdict."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    tiny_classes = ("distal-3x3", "jordan-3x3", "split-3x3")
    ops = []
    for kind, defect, count in DEFECT_PROBES:
        for i, u in enumerate(_stratified(rng, count)):
            u = float(u)
            if kind == "shear-2x2":
                Q2 = _rot(rng.uniform(0, math.pi))
                T = Q2 @ np.array([[1.0, 10.0 ** (-3.0 + 1.5 * u)], [0.0, 1.0]]) @ Q2.T
                expect, scale = "not-distal", rng.uniform(-3.0, 3.0)
            elif kind == "tiny-3x3":
                cls = tiny_classes[i % 3]
                T = _certify_matrix(rng, cls, u, i % 2 == 1)
                expect, scale = ("distal" if cls.startswith("distal") else "not-distal"), -4.0 - 4.0 * u
            else:
                Q3 = _orthogonal(rng, 3)
                T = Q3 @ (np.eye(3) + 10.0 ** (-1.0 + 2.0 * u) * np.diag([1.0, 1.0], k=1)) @ Q3.T
                expect, scale = "not-distal", rng.uniform(-3.0, 3.0)
            ops.append(Op(kind, expect, {"matrix": T * 10.0 ** scale, "defect": defect}))
    return ops


# --- semigroup-distal --------------------------------------------------------------

# (dimension, generators), cheapest first; the doubled classes put the
# median in the middle of (2, 3) and the 90th percentile inside (3, 3)
SEMIGROUP_DISTAL_ROUND = ((2, 2), (3, 2), (2, 3), (2, 3), (3, 3), (3, 3))
SEMIGROUP_DISTAL_ROUNDS = 1  # operations take about 1 s: each input repeats ~5 times a run
# exhaustive sweep sizes at the default word-length budget of 8
SWEEP_WORDS = {2: 510, 3: 9840}


def build_semigroup_distal(rng) -> list[list[Op]]:
    rounds = []
    for _ in range(SEMIGROUP_DISTAL_ROUNDS):
        ops = []
        for d, g in SEMIGROUP_DISTAL_ROUND:
            gens = [
                (_rot(rng.uniform(0.1, 2 * math.pi - 0.1)) if d == 2 else _orthogonal(rng, 3))
                * _loguniform(rng, 0.5, 2.0)
                for _ in range(g)
            ]
            ops.append(Op(f"d{d}-g{g}", "distal", {"generators": gens}))
        rounds.append(ops)
    return rounds


def run_semigroup_distal(sd, op: Op) -> Outcome:
    v = sd.semigroup_distality_test(sd.SemigroupSpec(tuple(op.data["generators"])))
    info = {"verdict": v.verdict.value}
    if v.verdict.value != "distal":
        return Outcome("verdict-mismatch", info)
    words = v.certificate.parameters.get("words_checked")
    info["words_checked"] = words
    if words != SWEEP_WORDS[len(op.data["generators"])]:
        return Outcome("sweep-incomplete", info)
    return Outcome(None, info)


# --- semigroup-unbounded -----------------------------------------------------------

# Generators are quarter-turn rotations (jittered) conjugated by a diagonal
# or shear matrix with stretch s.  Words then grow like s^length, so s sets
# the length of the first word whose norm passes the bound.  Each row is
# (family, first unbounded length, s range); inside each range the first
# unbounded word also sits at one fixed place in its level for every angle
# jitter below, so each row has one cost.  The counts per round put the
# median inside the 2g/7 rows and the 90th percentile inside the 3g/7 rows
# rather than between two rows.  Length 8 (3g-diag, s in 1.301..1.309,
# 7,379 words) is left out: its time swings with the machine's slow
# periods far more than the shorter sweeps do.
UNBOUNDED_STRATA = (
    ("2g", 5, 1.72, 1.90),
    ("2g", 5, 1.72, 1.90),
    ("2g", 7, 1.50, 1.60),
    ("2g", 7, 1.50, 1.60),
    ("2g", 7, 1.50, 1.60),
    ("2g", 7, 1.50, 1.60),
    ("3g-shear", 5, 1.655, 1.74),
    ("3g-shear", 6, 1.535, 1.555),
    ("3g-shear", 7, 1.43, 1.45),
    ("3g-shear", 7, 1.43, 1.45),
    ("3g-diag", 5, 1.54, 1.61),
    ("3g-diag", 6, 1.415, 1.435),
    ("3g-diag", 7, 1.352, 1.37),
)
UNBOUNDED_JITTER = 0.05
UNBOUNDED_ROUNDS = 12


def unbounded_generators(rng, family: str, s: float) -> list[np.ndarray]:
    theta = math.pi / 2 + rng.uniform(-UNBOUNDED_JITTER, UNBOUNDED_JITTER, size=3)
    D = np.diag([s, 1.0 / s])
    gens = [_rot(theta[0]), _conj(D, _rot(theta[1]))]
    if family == "3g-shear":
        gens.append(_conj(np.array([[1.0, s - 1.0 / s], [0.0, 1.0]]), _rot(theta[2])))
    elif family == "3g-diag":
        gens.append(_conj(np.diag([s ** -0.5, s ** 0.5]), _rot(theta[2])))
    # a common rotation frame and per-generator scales change the inputs
    # but not the normalized word norms
    Q = _rot(rng.uniform(0, 2 * math.pi))
    return [Q @ G @ Q.T * _loguniform(rng, 0.5, 2.0) for G in gens]


def build_semigroup_unbounded(rng) -> list[list[Op]]:
    rounds = []
    for _ in range(UNBOUNDED_ROUNDS):
        ops = []
        for family, length, lo, hi in UNBOUNDED_STRATA:
            s = rng.uniform(lo, hi)
            ops.append(Op(family, str(length), {"generators": unbounded_generators(rng, family, s)}))
        rounds.append(ops)
    return rounds


def run_semigroup_unbounded(sd, op: Op) -> Outcome:
    gens = op.data["generators"]
    v = sd.semigroup_distality_test(sd.SemigroupSpec(tuple(gens)))
    cert = v.certificate
    info = {"verdict": v.verdict.value}
    if v.verdict.value != "not-distal" or not isinstance(cert, sd.UnboundedWord):
        return Outcome("verdict-mismatch", info)
    info["word_length"] = len(cert.word)
    if str(len(cert.word)) != op.expect:
        return Outcome("word-length-mismatch", info)
    if not sd.replay_certificate(cert, generators=gens):
        return Outcome("replay-rejected", info)
    return Outcome(None, info)


# --- cli-solve --------------------------------------------------------------------

# the 3x3 witness is the slowest case; two in twelve put the 90th
# percentile inside it rather than between it and orbit
CLI_ROUND = (
    "fixed-point/positive-real", "fixed-point/complex", "fixed-point/minus-id",
    "witness/2x2-real", "witness/2x2-rotation", "witness/3x3-isometry", "witness/3x3-isometry",
    "inverse-image/2x2",
    "orbit/2x2", "orbit/3x3",
    "classify/2x2", "classify/3x3",
)
CLI_ROUNDS = 10
ORBIT_STEPS = 50
# absolute tolerance for the benchmark's own NumPy re-check of CLI points
POINT_TOL = 1e-8


def _fmt(v) -> str:
    return ",".join(repr(float(x)) for x in np.ravel(v))


def _general(rng, d: int) -> np.ndarray:
    """Well-conditioned matrix of either determinant sign."""
    Q1 = _rot(rng.uniform(0, math.pi)) if d == 2 else _orthogonal(rng, 3)
    Q2 = _rot(rng.uniform(0, math.pi)) if d == 2 else _orthogonal(rng, 3, proper=rng.uniform() < 0.5)
    sv = np.exp(rng.uniform(-0.7, 0.7, size=d))
    return Q1 @ np.diag(sv) @ Q2 * _loguniform(rng, 0.1, 10.0)


def _cli_case(rng, kind: str, r: int) -> tuple[np.ndarray, dict]:
    """Matrix and flags for one CLI case."""
    command, variant = kind.split("/")
    flags: dict = {}
    if kind == "fixed-point/positive-real" or kind == "witness/2x2-real":
        t = rng.uniform(0.3, 3.0)
        P = _rot(rng.uniform(0, math.pi)) @ np.diag([_loguniform(rng, 1.0, 2.0), 1.0])
        sign = -1.0 if (kind == "witness/2x2-real" and r % 2) else 1.0
        T = sign * _conj(P, np.diag([t, t * rng.uniform(0.2, 0.8)]))
    elif kind == "fixed-point/complex":
        k = rng.uniform(1.0, 1.1)
        theta = rng.uniform(0.1, 0.5)
        C = _rot(rng.uniform(0, math.pi)) @ np.diag([k, 1.0 / k])
        T = _loguniform(rng, 0.5, 2.0) * _conj(C, _rot(theta))
        # the bracket needs |sin theta| <= ||T^-1 a|| / cond, and cond = k^2
        lo = 1.1 * k * k * math.sin(theta)
        flags["rho"] = rng.uniform(lo, 0.95)
    elif kind == "fixed-point/minus-id":
        T = -_loguniform(rng, 0.5, 2.0) * np.eye(2)
    elif kind == "witness/2x2-rotation":
        T = _loguniform(rng, 0.5, 2.0) * _rot(rng.uniform(0.2, 1.3))
    elif kind in ("witness/3x3-isometry", "classify/3x3"):
        T = _orthogonal(rng, 3)
    elif kind == "classify/2x2":
        C = _rot(rng.uniform(0, math.pi)) @ np.diag([_loguniform(rng, 1.0, 4.0), 1.0])
        T = _loguniform(rng, 0.01, 100.0) * _conj(C, _rot(rng.uniform(0.2, math.pi - 0.2)))
    else:  # inverse-image, orbit
        T = _general(rng, 2 if variant == "2x2" else 3)
    d = T.shape[0]
    if command in ("fixed-point", "inverse-image", "orbit"):
        # translation with ||T^-1 a|| = rho < 1: the map is a homeomorphism
        rho = flags.pop("rho", rng.uniform(0.2, 0.8))
        flags["a"] = rho * (T @ _unit(rng, d))
    if command == "inverse-image":
        flags["y"] = _unit(rng, d)
    if command == "orbit":
        flags["x"] = _unit(rng, d)
    return T, flags


def build_cli_solve(rng, workdir: str) -> list[list[Op]]:
    rounds = []
    for r in range(CLI_ROUNDS):
        ops = []
        for k, kind in enumerate(CLI_ROUND):
            T, flags = _cli_case(rng, kind, r)
            command = kind.split("/")[0]
            path = os.path.join(workdir, f"m{r:02d}{k:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"dim": int(T.shape[0]), "rows": T.tolist()}, fh)
            argv = [command, path] + [f"--{name}={_fmt(v)}" for name, v in flags.items()]
            if command == "orbit":
                argv += ["--steps", str(ORBIT_STEPS), "--csv", path[:-5] + ".csv"]
            ops.append(Op(kind, command, {"argv": argv, "matrix": T, **flags}))
        rounds.append(ops)
    return rounds


def _affine(T, a, x):
    v = a + T @ x
    return v / np.linalg.norm(v)


def _close(p, q, tol=POINT_TOL) -> bool:
    return bool(np.all(np.isfinite(p)) and np.linalg.norm(np.asarray(p) - np.asarray(q)) <= tol)


def _check_fixed(T, a, body, tol: float) -> bool:
    if body["kind"] == "fixed-point":
        x = np.array(body["point"])
        return body["residual"] <= tol and _close(_affine(T, a, x), x)
    pts = np.array(body["points"])
    return max(body["residuals"]) <= tol and all(
        _close(_affine(T, a, pts[k]), pts[j]) for k, j in enumerate(body["partner"]))


def check_cli_result(op: Op, result: dict, config: dict) -> bool:
    """Re-check one CLI result payload against the inputs with plain NumPy."""
    T = op.data["matrix"]
    command = op.expect
    tol = config["residual_tol"]
    if command == "fixed-point":
        return _check_fixed(T, op.data["a"], result, tol)
    if command == "witness":
        a = np.array(result["a"])
        body = result["result"]
        if body["kind"] != "proximal-pair":
            return _check_fixed(T, a, body, tol)
        P = np.array([body["x"], body["y"]])
        for _ in range(body["steps"]):
            P = np.array([_affine(T, a, p) for p in P])
        sep = float(np.linalg.norm(P[0] - P[1]))
        return sep < config["recurrence_eps"] and abs(sep - body["separation_final"]) <= 1e-6
    if command == "inverse-image":
        x = np.array(result["point"])
        return result["forward_residual"] <= tol and _close(_affine(T, op.data["a"], x), op.data["y"])
    if command == "orbit":
        with open(result["csv"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        pts = np.array([[float(v) for v in row.split(",")[1:]] for row in rows[1:]])
        if len(pts) != ORBIT_STEPS + 1 or not _close(pts[0], op.data["x"]):
            return False
        images = np.array([_affine(T, op.data["a"], p) for p in pts[:-1]])
        return bool(np.max(np.linalg.norm(images - pts[1:], axis=1)) <= POINT_TOL) and \
            _close(pts[-1], result["last"], 0.0)
    if command == "classify":
        return result["verdict"] == "distal"
    return False


def call_cli(sd, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sd.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliRunner:
    """Runs cli-solve operations and keeps each argv's first result bytes,
    so every repeat of an argv is checked for byte-identical output."""

    def __init__(self):
        self.seen: dict[tuple, str] = {}

    def __call__(self, sd, op: Op) -> Outcome:
        info = {"subcommand": op.expect}
        try:
            code, out, _ = call_cli(sd, op.data["argv"])
        except Exception as exc:  # the CLI must map every failure to an exit code
            return Outcome(f"raised:{type(exc).__name__}", info)
        if code != 0:
            info["exit"] = code
            return Outcome("unexpected-exit", info)
        report = json.loads(out)
        result = json.dumps(report["result"], sort_keys=True, indent=2)
        key = tuple(op.data["argv"])
        if self.seen.setdefault(key, result) != result:
            return Outcome("nondeterministic", info)
        if not check_cli_result(op, report["result"], report["config"]):
            return Outcome("wrong-result", info)
        return Outcome(None, info)


# --- registry ---------------------------------------------------------------------


def build(name: str, seed: int, workdir: str) -> list[list[Op]]:
    """The workload's rounds for this seed.  Only cli-solve writes files."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "certify":
        return build_certify(rng)
    if name == "semigroup-distal":
        return build_semigroup_distal(rng)
    if name == "semigroup-unbounded":
        return build_semigroup_unbounded(rng)
    if name == "cli-solve":
        return build_cli_solve(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")


def runner(name: str):
    """The function that runs one operation of the workload."""
    return {
        "certify": run_certify,
        "semigroup-distal": run_semigroup_distal,
        "semigroup-unbounded": run_semigroup_unbounded,
        "cli-solve": CliRunner(),
    }[name]
