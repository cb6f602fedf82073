"""The three seeded workloads of the ttbell benchmark.

Each workload turns a seed into fixed inputs once, at set-up, and then
yields the same operations on every pass.  An operation is one call into
the program (``call``, timed) and one check of its result (``check``,
untimed), which returns ``None`` when the result is right and otherwise a
one-line reason.  A pass is a closed loop: one caller, no threads, and
each call starts only after the previous one has returned.

Every call goes through a module attribute (``montecarlo.run``, not a
name bound at import), so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from ttbell import chsh, cli, lhv, model_io, montecarlo, polytope

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

BOUND_TOL = 1e-12  # CHSH bound, as in acceptance test 05
RESIDUAL_TOL = 1e-9  # certificate weight residual, as in acceptance test 06
FACET_TOL = 1e-9  # a facet value up to 2 + FACET_TOL is feasible, as in ttbell.polytope
# the CLI prints weights rounded at 9 decimals; each of the 16 may be off by
# half a unit in the last place, and the residual adds them up
PRINTED_WEIGHT_ROUNDING = 16 * 0.5e-9
SIGMA_BAND = 4.0  # Monte Carlo band, as in acceptance test 04

SMOKE_SCALE = 0.02  # the tests' tiny size; golden.json covers it as well


class Op(NamedTuple):
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


class Tally:
    """Attempted and failed operations.

    An operation fails if its call raises or its check rejects the result.
    Only the second kind is a wrong answer: ``wrong`` counts those, and a
    run with ``wrong == 0`` is reported as correct.
    """

    def __init__(self):
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.by_kind: Counter = Counter()
        self.reasons: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def record(self, op: Op, reason: Optional[str], raised: bool = False) -> None:
        self.attempted += 1
        if reason is None:
            return
        if raised:
            self.raised += 1
        else:
            self.wrong += 1
        self.by_kind[op.kind] += 1
        self.reasons.setdefault(op.kind, reason)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "failed_by_kind": dict(self.by_kind),
            "reasons": self.reasons,
        }


def run_pass(workload, pass_index: int, tally: Tally, clock) -> float:
    """Run every operation of one pass; returns the time spent in calls."""
    busy = 0.0
    for op in workload.ops(pass_index):
        t0 = clock()
        try:
            result = op.call()
        except Exception as exc:  # a failing operation must not end the pass
            busy += clock() - t0
            tally.record(op, f"{type(exc).__name__}: {exc}"[:300], raised=True)
            continue
        busy += clock() - t0
        tally.record(op, op.check(result))
    return busy


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, stream])


def certificate_residual(weights: dict[tuple, float], targets) -> float:
    """Largest deviation of a strategy mixture from the targets and from
    unit total weight, computed here rather than by ``polytope``."""
    acc = [0.0, 0.0, 0.0, 0.0]
    total = 0.0
    for (a, ap, b, bp), w in weights.items():
        for k, v in enumerate((a * b, a * bp, ap * bp, ap * b)):
            acc[k] += w * v
        total += w
    return max(max(abs(x - t) for x, t in zip(acc, targets)), abs(total - 1.0))


def max_facet(targets) -> float:
    """Largest signed CHSH combination with an odd number of minus signs."""
    e1, e2, e3, e4 = targets
    return max(
        s1 * e1 + s2 * e2 + s3 * e3 + s4 * e4
        for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1) for s4 in (1, -1)
        if s1 * s2 * s3 * s4 == -1
    )


def ladder_pairs(settings) -> list[tuple[float, float]]:
    s = settings
    return [(s.a, s.b), (s.a, s.b_prime), (s.a_prime, s.b_prime), (s.a_prime, s.b)]


class McSweep:
    """Efficiency sweep of ``scripts/run_efficiency_sweep.py``: the four
    ladder pairs at alpha = pi/4, at eta_F values on both sides of
    1/sqrt(2).  Consecutive passes run each point with the other sharding,
    so every pass after the first checks the Philox counter-block contract.
    """

    name = "mc-sweep"
    dominant = ("montecarlo",)
    ETAS = (0.62, 0.67, 0.75, 0.85)
    ETA_JITTER = 0.01  # keeps every eta_F >= 0.027 from the threshold
    TRIALS = 1_500_000
    SHARDS = 4

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = _rng(seed, 1)
        self.trials = max(1000, int(self.TRIALS * scale))
        self.settings = chsh.ladder_settings(math.pi / 4)
        self.pairs = ladder_pairs(self.settings)
        self.etas = [float(e + rng.uniform(-self.ETA_JITTER, self.ETA_JITTER)) for e in self.ETAS]
        self.seeds = [[int(s) for s in row] for row in rng.integers(0, 2**63, (len(self.etas), 4))]
        self.last_counts: dict[tuple[int, int], tuple] = {}
        self.shard_mismatches = 0

    def ops(self, p: int):
        for i, eta in enumerate(self.etas):
            correlators: dict = {}
            for j, (a, b) in enumerate(self.pairs):
                shards = 1 if (i * len(self.pairs) + j + p) % 2 == 0 else self.SHARDS
                yield Op(
                    "mc.point",
                    partial(self._point, a, b, eta, self.seeds[i][j], shards, correlators),
                    partial(self._check_point, (i, j), a, b, eta),
                )
            yield Op("mc.chsh", partial(self._chsh, eta, correlators), self._check_chsh)

    def _point(self, a, b, eta, seed, shards, correlators):
        config = montecarlo.DetectionConfig(eta_d=eta)
        rc = montecarlo.run(a, b, config, self.trials, seed, n_shards=shards)
        est = montecarlo.estimate(rc)
        correlators[(a, b)] = est.correlator_exp
        return rc, est

    def _check_point(self, key, a, b, eta, result) -> Optional[str]:
        rc, est = result
        counts = (*rc.counts.values(), rc.n_undetected)
        previous = self.last_counts.get(key)
        self.last_counts[key] = counts
        if previous is not None and previous != counts:
            self.shard_mismatches += 1
            return f"counts differ between shardings: {previous} != {counts}"
        ideal = math.cos(a - b)
        if abs(est.correlator_exp - eta * ideal) > SIGMA_BAND * est.std_error:
            return f"raw correlator {est.correlator_exp!r} outside 4 sigma of {eta * ideal!r}"
        cond = est.correlator_conditioned
        if cond is None or abs(cond - ideal) > SIGMA_BAND * est.std_error_conditioned:
            return f"conditioned correlator {cond!r} outside 4 sigma of {ideal!r}"
        return None

    def _chsh(self, eta, correlators):
        report = chsh.chsh_value(lambda x, y: correlators[(x, y)], self.settings)
        return report, chsh.threshold_analysis(eta, 1.0)

    @staticmethod
    def _check_chsh(result) -> Optional[str]:
        report, threshold = result
        if report.violated != threshold.violated:
            return (f"measured S = {report.s_value!r} gives violated={report.violated}, "
                    f"threshold_analysis says {threshold.violated}")
        return None


class LhvAudit:
    """Acceptance-05 traffic: thousands of tiny random factorized models
    against both CHSH bounds, polytope certificates for a subsample,
    ``verify_consistency`` on one large position-style model, and model-file
    round trips of a position-style and of a random model."""

    name = "lhv-audit"
    dominant = ("lhv",)
    MODELS = 5000
    CERTIFY_EVERY = 8
    GRID = 10_000

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = _rng(seed, 2)
        n_models = max(self.CERTIFY_EVERY, int(self.MODELS * scale))
        self.n_lambdas = [int(k) for k in rng.integers(1, 4, n_models)]
        self.model_seed = int(rng.integers(0, 2**63))
        self.grid = max(16, int(self.GRID * scale))
        self.settings = chsh.ladder_settings(math.pi / 4)
        self.pairs = ladder_pairs(self.settings)
        self.t1 = [self.settings.a, self.settings.a_prime]
        self.t2 = [self.settings.b, self.settings.b_prime]
        self.a, self.b = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
        self.position_path = workdir / "position.model"
        self.random_path = workdir / "random.model"

    def ops(self, p: int):
        model_rng = np.random.default_rng(self.model_seed)
        last: list = [None]
        first: list = [None]
        for k, n_lambda in enumerate(self.n_lambdas):
            yield Op("lhv.model", partial(self._model, model_rng, n_lambda, last), self._check_bounds)
            if k == 0:
                first[0] = last[0]
            if k % self.CERTIFY_EVERY == 0:
                yield Op("polytope.certificate", partial(self._certificate, last), self._check_certificate)
        position: list = [None]
        yield Op("lhv.verify", partial(self._verify, position), self._check_verify)
        yield Op(
            "model_io.roundtrip",
            partial(self._roundtrip, position, self.position_path, [self.a], [self.b], [(self.a, self.b)]),
            self._check_roundtrip,
        )
        yield Op(
            "model_io.roundtrip",
            partial(self._roundtrip, first, self.random_path, self.t1, self.t2, self.pairs),
            self._check_roundtrip,
        )

    def _model(self, rng, n_lambda, last):
        model = lhv.random_factorized_model(rng, n_lambda, self.t1, self.t2)
        last[0] = model
        per_state = max(lhv.per_lambda_chsh(model, self.settings, lam) for lam in model.support)
        return per_state, lhv.averaged_chsh(model, self.settings)

    @staticmethod
    def _check_bounds(result) -> Optional[str]:
        per_state, averaged = result
        if per_state > 2.0 + BOUND_TOL or averaged > 2.0 + BOUND_TOL:
            return f"CHSH bound broken: per-state {per_state!r}, averaged {averaged!r}"
        return None

    def _certificate(self, last):
        model = last[0]
        targets = tuple(lhv.average_over_lambda(model, x, y)[1].correlator for x, y in self.pairs)
        return targets, polytope.polytope_check(targets)

    @staticmethod
    def _check_certificate(result) -> Optional[str]:
        targets, cert = result
        if not cert.feasible:
            return f"local model's correlators {targets!r} certified infeasible"
        residual = certificate_residual(cert.weights, targets)
        if residual > RESIDUAL_TOL:
            return f"certificate weight residual {residual!r} > {RESIDUAL_TOL}"
        return None

    def _verify(self, position):
        position[0] = lhv.position_style_model(self.grid)
        return lhv.verify_consistency(position[0], self.a, self.b)

    @staticmethod
    def _check_verify(report) -> Optional[str]:
        return None if report.passed else f"consistency report failed: {report!r}"[:300]

    @staticmethod
    def _roundtrip(holder, path, t1, t2, pairs):
        model = holder[0]
        model_io.write_model_file(path, model, t1_angles=t1, t2_angles=t2)
        reloaded = model_io.load_model(path)
        return [
            (lhv.average_over_lambda(model, x, y)[0], lhv.average_over_lambda(reloaded, x, y)[0])
            for x, y in pairs
        ]

    @staticmethod
    def _check_roundtrip(joints) -> Optional[str]:
        for before, after in joints:
            if before != after:
                return f"reloaded model gives {after!r}, original {before!r}"
        return None


def invocation_key(argv: list[str]) -> str:
    """Digest of a CLI invocation, given without its ``--out``."""
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()


def fixed_invocations(scale: float) -> list[tuple[str, list[str], Optional[tuple]]]:
    """(label, argv without --out, polytope targets or None) of the CLI runs
    whose output is pinned by sha256 in golden.json; they do not depend on
    the seed."""
    n = max(4, round(50 * math.sqrt(scale)))
    a_grid = ",".join(repr(float(x)) for x in np.linspace(-math.pi / 2, math.pi / 2, n))
    b_grid = ",".join(repr(float(x)) for x in np.linspace(0.0, 2 * math.pi, n))
    step = 4e-5 / scale
    runs = []
    for fmt in ("csv", "json"):
        runs.append((f"table {n}x{n} {fmt}",
                     ["table", f"--a={a_grid}", f"--b={b_grid}", "--format", fmt], None))
    for fmt in ("csv", "json"):
        runs.append((f"chsh-scan step {step:g} {fmt}",
                     ["chsh-scan", f"--alpha-step={step!r}", "--eta-d=0.85", "--format", fmt],
                     None))
    for alpha in CliReports.LADDER_ALPHAS:
        for eta in CliReports.LADDER_ETAS:
            runs.append((f"polytope alpha {alpha:.6f} eta_d {eta}",
                         ["polytope", f"--alpha={alpha!r}", f"--eta-d={eta!r}"],
                         ladder_targets(alpha, eta)))
    return runs


def ladder_targets(alpha: float, eta: float) -> tuple[float, ...]:
    """Ladder correlators eta*cos(x - y), computed here, not by ``quantum``."""
    s = chsh.ChshSettings(a=2.0 * alpha, a_prime=0.0, b=3.0 * alpha, b_prime=alpha)
    return tuple(eta * math.cos(x - y) for x, y in ladder_pairs(s))


class CliReports:
    """In-process ``cli.main`` runs writing to ``--out``: a dense ``table``
    and a fine ``chsh-scan`` in CSV and JSON, then a grid of small
    ``polytope`` calls (ladder --alpha x --eta-d, plus random --targets=)."""

    name = "cli-reports"
    dominant = ("cli", "chsh", "quantum")
    LADDER_ALPHAS = (0.1, 0.3, 0.5, 0.7, math.pi / 4, 0.9, 1.2, 1.5)
    LADDER_ETAS = (0.5, 0.65, 0.69, 0.72, 0.85, 1.0)
    RANDOM_TARGETS = 100
    BOUNDARY_GAP = 1e-6  # targets this close to a facet have no clear expected exit code

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = _rng(seed, 3)
        self.workdir = workdir
        golden = {g["key"]: g["sha256"] for g in json.loads(GOLDEN.read_text())["outputs"]}
        runs = []
        for label, argv, targets in fixed_invocations(scale):
            digest = golden.get(invocation_key(argv))
            if digest is None:
                raise KeyError(f"golden.json has no digest for {label}; see make_golden.py")
            runs.append((label, argv, digest, targets))
        n_random = max(4, int(self.RANDOM_TARGETS * scale))
        while n_random:
            targets = tuple(float(x) for x in rng.uniform(-1.0, 1.0, 4))
            if abs(max_facet(targets) - 2.0) < self.BOUNDARY_GAP:
                continue
            argv = ["polytope", "--targets=" + ",".join(repr(t) for t in targets)]
            runs.append(("polytope random targets", argv, None, targets))
            n_random -= 1
        # the seed also decides the order of the small polytope calls
        big = [r for r in runs if r[1][0] != "polytope"]
        small = [r for r in runs if r[1][0] == "polytope"]
        self.runs = big + [small[k] for k in rng.permutation(len(small))]

    def ops(self, p: int):
        for k, (label, argv, digest, targets) in enumerate(self.runs):
            out = self.workdir / f"out-{k}"
            full = argv + ["--out", str(out)]
            yield Op(
                "cli." + argv[0],
                partial(cli.main, full),
                partial(self._check, label, out, digest, targets),
            )

    @staticmethod
    def _check(label, out: Path, digest, targets, exit_code) -> Optional[str]:
        try:
            data = out.read_bytes()
        except OSError as exc:
            return f"{label}: no output ({exc})"
        finally:
            out.unlink(missing_ok=True)
        if targets is None:
            expected_exit = cli.EXIT_OK
        else:
            feasible = max_facet(targets) <= 2.0 + FACET_TOL
            expected_exit = cli.EXIT_OK if feasible else cli.EXIT_INFEASIBLE
        if exit_code != expected_exit:
            return f"{label}: exit code {exit_code}, expected {expected_exit}"
        if digest is not None and hashlib.sha256(data).hexdigest() != digest:
            return f"{label}: output differs from golden.json"
        if targets is None or expected_exit != cli.EXIT_OK:
            return None
        payload = json.loads(data)
        weights = {
            tuple(1 if c == "+" else -1 for c in signs): w
            for signs, w in payload["weights"].items()
        }
        residual = certificate_residual(weights, targets)
        if residual > RESIDUAL_TOL + PRINTED_WEIGHT_ROUNDING:
            return f"{label}: certificate weight residual {residual!r}"
        return None


WORKLOADS = {w.name: w for w in (McSweep, LhvAudit, CliReports)}


def build(name: str, seed: int, workdir: Path, scale: float = 1.0):
    return WORKLOADS[name](seed, workdir, scale)
