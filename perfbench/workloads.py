"""Seeded inputs, operations and output checks of the four workloads.

Every operation makes the same library calls as the matching
``hardy-split`` subcommand, including serialising the report with
``to_json``; the command-line layer itself is not involved.  Library
functions are looked up on their modules at call time, so the tracer's
wrappers are seen.

A workload is a sequence of *rounds*.  A round is a fixed list of input
slots (the same kinds, in the same order, in every round and every seed);
the seed only draws the parameters inside each slot.  Runs therefore keep
the same mix of input kinds whatever the seed, and no input is filtered by
whether the library handles it today: failures are counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hardysplit import approx, cayley, corpus, hardy, quadrature, rational
from hardysplit import serialize, spectral, split

WORKLOADS = ("decompose", "atoms", "verify", "samples")

# Parameters the CLI uses for the matching subcommands.
EPS = 0.5
RECOVERY_XS = (0.0, 1.0, -1.0)
RECOVERY_Y = 0.1
SPLIT_TOL = 1e-4
PHI_GRID = 16
VERIFY_P = 0.75
PROFILE_HEIGHTS = (0.1, 0.5, 1.0, 2.0, 5.0)
EXTENSION_POINTS = (0.5j, 1j, 2j, 1.0 + 1j, -2.0 + 0.5j)
RECONSTRUCT_POINTS = (1j, 2j, 1.0 + 1.5j, -0.5 + 1j)
SAMPLES_N = 4096
# Pulled back, x^-2 data blow up like |theta - pi|^(2 - 2/p).  At p = 0.9 the
# quasinorm costs 0.04-0.07 s on every input; at p = 0.8 its cost varies
# 20-fold between inputs (0.07-1.4 s), too wide for a steady run median.
SAMPLES_P = 0.9

# The CLI's decompose runs a 4-stage pipeline (atoms n = 33, 49, 81, 145),
# about 30 s per call today.  Two stages (atoms n = 33, 49) run the same
# pipeline and phi-scan code at about 5 s per call, so a run holds a round.
DECOMPOSE_STAGES = 2

# A 2-stage decomposition recovers f's Poisson extension to a few percent
# only (the acceptance gate's 1% is for the full 4-stage pipeline), so the
# recovery is checked against the exact extension of the atom sum it
# averages (poisson_recovery integrates to tol 1e-6), and its distance to
# f's extension is reported as rel_err.
RECOVERY_QUAD_RTOL = 1e-4
# The CLI's verify thresholds.
EXTENSION_ATOL = 1e-6
RECONSTRUCT_ATOL = 1e-5
# ||f||_p^p comes from a quadrature at the pipeline's tol 3e-4.
NORM_RTOL = 1e-3
# P + Q = R and the blend formula are identities in exact arithmetic.
IDENTITY_RTOL = 1e-9


def p_strata(rng) -> list[float]:
    """Five exponents spread over (1/2, 1), one near the middle of each tenth.

    Staying 0.03 inside each tenth keeps the mix of exponents, and so the
    share of inputs the library fails on, about the same from seed to seed.
    """
    return [0.5 + 0.1 * (k + float(rng.uniform(0.3, 0.7))) for k in range(5)]


# -- line functions with exact oracles ----------------------------------------

@dataclass(frozen=True)
class LorentzSum:
    """f(x) = sum a_k / ((x - c_k)^2 + b_k^2): two-sided, decaying like x^-2."""

    a: tuple
    b: tuple
    c: tuple

    def __call__(self, x):
        x = np.asarray(x, dtype=complex)
        out = np.zeros(x.shape, dtype=complex)
        for a, b, c in zip(self.a, self.b, self.c):
            out += a / ((x - c) ** 2 + b * b)
        return out

    def poisson(self, x: float, y: float) -> float:
        """Exact Poisson extension at height y (each term widens by y)."""
        return sum(a / b * (b + y) / ((x - c) ** 2 + (b + y) ** 2)
                   for a, b, c in zip(self.a, self.b, self.c))

    def norm_p(self, p: float) -> float:
        """integral of |f|^p over R: closed form for one term, else mpmath."""
        if len(self.a) == 1:
            a, b = self.a[0], self.b[0]
            return (a ** p * b ** (1.0 - 2.0 * p) * math.sqrt(math.pi)
                    * math.gamma(p - 0.5) / math.gamma(p))
        import mpmath

        def g(x):
            return sum(a / ((x - c) ** 2 + b * b)
                       for a, b, c in zip(self.a, self.b, self.c)) ** p

        pts = [-mpmath.inf, *sorted(self.c), mpmath.inf]
        return float(mpmath.quad(g, pts))


def lorentz_sum(rng, terms: int) -> LorentzSum:
    return LorentzSum(a=tuple(rng.uniform(0.5, 2.0, terms)),
                      b=tuple(rng.uniform(0.6, 1.6, terms)),
                      c=tuple(rng.uniform(-1.5, 1.5, terms)))


CORPUS_LORENTZIAN = LorentzSum(a=(4.0,), b=(1.0,), c=(0.0,))


@dataclass(frozen=True)
class PoleSum:
    """f(z) = sum c_k / (z - a_k)^2, analytic on the side free of the a_k."""

    coeffs: tuple
    poles: tuple

    @property
    def upper(self) -> bool:
        return all(a.imag < 0 for a in self.poles)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for c, a in zip(self.coeffs, self.poles):
            out += c / (z - a) ** 2
        return out

    def at(self, z: complex) -> complex:
        return complex(self(np.array([z]))[0])


def pole_sum(rng, upper: bool) -> PoleSum:
    terms = int(rng.integers(1, 3))
    sign = -1.0 if upper else 1.0
    poles = tuple(complex(x, sign * y) for x, y in
                  zip(rng.uniform(-1.5, 1.5, terms), rng.uniform(0.5, 1.5, terms)))
    coeffs = tuple(complex(r * math.cos(t), r * math.sin(t)) for r, t in
                   zip(rng.uniform(0.5, 2.0, terms), rng.uniform(0, 2 * math.pi, terms)))
    return PoleSum(coeffs=coeffs, poles=poles)


def entry_for(g: PoleSum, name: str) -> corpus.CorpusEntry:
    side = corpus.UPPER if g.upper else corpus.LOWER
    return corpus.CorpusEntry(name=name, description="seeded pole sum", f=g,
                              side=side)


# -- operations ----------------------------------------------------------------

class ReportedFailure(Exception):
    """The library signalled a failure in its result instead of raising.

    line_profile records a height whose quadrature raised NoConvergence as
    inf; for data that the verifier must call upper-analytic this is the
    same failure as the exception, so it is counted like one.
    """

    def __init__(self, message: str, exc_class: str, layer: str):
        super().__init__(message)
        self.exc_class = exc_class
        self.layer = layer


@dataclass
class Op:
    """One closed-loop operation: its inputs, and its result once run."""

    kind: str
    label: str
    p: float
    args: dict
    result: object = None
    report_bytes: int = 0


def _decompose_round(rng, tiny: bool) -> list[Op]:
    ops = [Op("decompose", "corpus:lorentzian", 0.75,
              {"f": corpus.get("lorentzian").boundary, "oracle": CORPUS_LORENTZIAN})]
    ps = p_strata(rng)
    for k, p in enumerate(ps):
        g = lorentz_sum(rng, 1 + k % 3)
        ops.append(Op("decompose", f"lorentz{len(g.a)}", p, {"f": g, "oracle": g}))
    return ops[:2] if tiny else ops


def laurent_atom(rng, d: int) -> rational.LaurentRational:
    """Generic complex coefficients times (w + 2 + 1/w), so R decays like x^-2."""
    c = rng.normal(size=2 * d + 1) + 1j * rng.normal(size=2 * d + 1)
    return rational.LaurentRational(np.convolve(c, [1.0, 2.0, 1.0]))


def conjugate_pair(rng):
    """R1 = (1+w)^2 q(w) with poles at -i only, R2 its reflection w -> 1/w."""
    q = rng.normal(size=2) + 1j * rng.normal(size=2)
    up = np.convolve([1.0, 2.0, 1.0], q)  # powers 0..3
    n = up.size - 1
    c1 = np.zeros(2 * n + 1, dtype=complex)
    c1[n:] = up
    c2 = np.conj(c1[::-1])
    return rational.LaurentRational(c1), rational.LaurentRational(c2)


def _atoms_round(rng, tiny: bool) -> list[Op]:
    ps = p_strata(rng)
    ops = []
    for p in ps:
        ops.append(Op("split", "corpus:lorentzian", p,
                      {"R": corpus.get("lorentzian").laurent}))
    for name in ("upper_double_pole", "lower_double_pole"):
        ops.append(Op("split", f"corpus:{name}", ps[int(rng.integers(5))],
                      {"R": corpus.get(name).laurent}))
    for d in range(4):
        for p in ps:
            ops.append(Op("split", f"atom_d{d}", p, {"R": laurent_atom(rng, d)}))
    # Two corpus blends a round (they succeed up to p ~ 0.93) put a steady
    # cluster near the slow end of the run, so op_tail_s does not hinge on
    # how many of the slow seeded inputs happen to succeed.
    R1, R2 = corpus.blend_pair()
    for p in (ps[2], ps[3]):
        ops.append(Op("blend", "corpus:blend_pair", p, {"R1": R1, "R2": R2}))
    for p in (ps[1], ps[3]):
        R1, R2 = conjugate_pair(rng)
        ops.append(Op("blend", "conjugate_pair", p, {"R1": R1, "R2": R2}))
    return ops[::6] if tiny else ops


_VERIFY_CORPUS = ("upper_double_pole", "lower_double_pole", "upper_triple_pole",
                  "lorentzian")


def _verify_round(rng, tiny: bool, index: int) -> list[Op]:
    entries = [entry_for(pole_sum(rng, upper), "seeded_upper" if upper else "seeded_lower")
               for upper in (True, True, True, False)]
    entries.append(corpus.get(_VERIFY_CORPUS[index % len(_VERIFY_CORPUS)]))
    ops = [Op("verify", e.name, VERIFY_P, {"entry": e}) for e in entries]
    return ops[3:] if tiny else ops


def _samples_round(rng, tiny: bool) -> list[Op]:
    """Per function: one op per extension point, then one quasinorm op."""
    ops = []
    thetas = cayley.circle_grid(SAMPLES_N)
    for upper in (True, True, False):
        g = pole_sum(rng, upper)
        vals = np.zeros(SAMPLES_N, dtype=complex)
        vals[1:] = g(np.tan(thetas[1:] / 2.0))
        samples = cayley.BoundarySamples(n=SAMPLES_N, values=vals, p=SAMPLES_P,
                                         domain_tag="line")
        side = "upper" if upper else "lower"
        for z in EXTENSION_POINTS:
            ops.append(Op("extend", side, SAMPLES_P,
                          {"g": g, "samples": samples, "z": z}))
        ops.append(Op("quasinorm", side, SAMPLES_P, {"g": g, "samples": samples}))
    return ops[::5] if tiny else ops


# Wall time of one round on the reference machine (2-core x86-64, seed
# commit).  A run of --seconds s holds round(seconds / ROUND_SECONDS) rounds,
# at least one: the work, and so `attempted` and `failed`, depend on the
# seed and --seconds only, never on how fast this run happens to go.
ROUND_SECONDS = {"decompose": 20.0, "atoms": 1.1, "verify": 0.23, "samples": 1.85}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def make_round(workload: str, rng, index: int, tiny: bool = False) -> list[Op]:
    if workload == "decompose":
        return _decompose_round(rng, tiny)
    if workload == "atoms":
        return _atoms_round(rng, tiny)
    if workload == "verify":
        return _verify_round(rng, tiny, index)
    if workload == "samples":
        return _samples_round(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def schedule(tiny: bool) -> approx.AtomSchedule:
    return approx.AtomSchedule(stages=1 if tiny else DECOMPOSE_STAGES)


def run_op(op: Op, tiny: bool = False) -> None:
    """The timed part: library calls plus serialising the report."""
    a = op.args
    if op.kind == "decompose":
        dec = split.decompose(a["f"], op.p, EPS, schedule(tiny))
        report = dec.to_report()
        report["recovery"] = [
            {"x": x, "y": RECOVERY_Y,
             "value": split.poisson_recovery(dec, x, RECOVERY_Y)}
            for x in RECOVERY_XS
        ] if dec.source is not None and dec.plus_atoms else []
        op.result = (dec, report["recovery"])
    elif op.kind == "split":
        res = split.split_atom(a["R"], op.p, phi_candidates=PHI_GRID, tol=SPLIT_TOL)
        report = res.to_report()
        op.result = res
    elif op.kind == "blend":
        blend = split.real_pole_blend(a["R1"], a["R2"], op.p,
                                      phi_candidates=PHI_GRID, tol=SPLIT_TOL)
        report = blend.to_report()
        op.result = blend
    elif op.kind == "verify":
        report, raw = _verify_battery(a["entry"], op.p)
        op.result = (report, raw)
        spectrum = spectral.dft_line(a["entry"].boundary, L=spectral.DEFAULT_L,
                                     n=spectral.DEFAULT_N)
        op.report_bytes += len(serialize.to_json(spectrum.to_report()))
    elif op.kind == "extend":
        s, z = a["samples"], a["z"]
        pv, cv = hardy.poisson_extend(s, z), hardy.cauchy_integral(s, z)
        report = {"z": z, "poisson": pv, "cauchy": cv}
        op.result = (pv, cv)
    elif op.kind == "quasinorm":
        s = a["samples"]
        norm = quadrature.lp_quasinorm_circle(cayley.pullback(s, op.p, s.n), op.p,
                                              tol=SPLIT_TOL)
        report = norm.to_report()
        op.result = norm
    else:
        raise ValueError(op.kind)
    op.report_bytes += len(serialize.to_json(report))


def _verify_battery(entry, p: float) -> tuple[dict, dict]:
    """The CLI's verify report, plus the raw values the checker compares."""
    upper = entry.side == corpus.UPPER
    res = spectral.spectrum_support_test(entry.boundary, max(p, 1.0))
    expected_up = entry.side in (corpus.UPPER, corpus.ZERO)
    checks = [{"check": "spectrum", "expected_in_Hplus": expected_up,
               "in_Hplus": res["in_Hplus"], "ratio": res["ratio"],
               "ok": res["in_Hplus"] == expected_up}]
    prof = hardy.line_profile(entry.f, p, PROFILE_HEIGHTS, tol=1e-6)
    if expected_up and not all(math.isfinite(v) for v in prof.values):
        raise ReportedFailure(f"line_profile recorded {list(prof.values)}",
                              "NoConvergence", "quadrature")
    checks.append({"check": "profile", "expected_monotone": expected_up,
                   "monotone": prof.monotone, "values": list(prof.values),
                   "ok": prof.monotone == expected_up})
    raw = {}
    if upper:
        worst, values = 0.0, []
        for z in EXTENSION_POINTS:
            pv = hardy.poisson_extend(entry.boundary, z)
            cv = hardy.cauchy_integral(entry.boundary, z)
            exact = complex(np.asarray(entry.f(np.array([z])))[0])
            values.append((z, pv, cv, exact))
            worst = max(worst, abs(pv - cv), abs(pv - exact), abs(cv - exact))
        raw["extension"] = values
        checks.append({"check": "extension", "max_dev": worst,
                       "ok": worst < EXTENSION_ATOL})
        Fp = spectral.build_F(entry.f, min(p, 1.0), L=1600.0, n=2 ** 17)
        recon = [(z, spectral.laplace_reconstruct(Fp, z)) for z in RECONSTRUCT_POINTS]
        rworst = max(abs(v - complex(np.asarray(entry.f(np.array([z])))[0]))
                     for z, v in recon)
        raw["reconstruct"] = recon
        checks.append({"check": "reconstruct", "max_dev": rworst,
                       "max_cross_delta_dev": Fp.max_cross_delta_dev,
                       "ok": rworst < RECONSTRUCT_ATOL
                       and Fp.max_cross_delta_dev < RECONSTRUCT_ATOL})
    else:
        checks.append({"check": "extension", "ok": True, "skipped": "upper-only check"})
        checks.append({"check": "reconstruct", "ok": True,
                       "skipped": "upper-only check"})
    report = {"corpus": entry.name, "p": p, "checks": checks,
              "all_ok": all(c["ok"] for c in checks)}
    return report, raw


# -- output checks (outside the timed region) ----------------------------------

@dataclass
class CheckResult:
    ok: bool
    reason: str = ""
    rel_err: float | None = None
    bound_use: float | None = None


def check_op(op: Op) -> CheckResult:
    return _CHECKS[op.kind](op)


def atom_sum_poisson(S: rational.LaurentRational, x: float, y: float) -> float:
    """Exact Poisson extension of the boundary values of a Laurent sum.

    On the line beta^-k = conj(beta)^k, so beta^k extends as beta(z)^k and
    beta^-k as conj(beta(z))^k; the real part is what poisson_recovery returns.
    """
    w = complex(cayley.beta(complex(x, y)))
    total = S.coeff(0)
    for k in range(1, S.n + 1):
        total += S.coeff(k) * w ** k + S.coeff(-k) * w.conjugate() ** k
    return total.real


def _check_decompose(op: Op) -> CheckResult:
    (dec, recovery), p, oracle = op.result, op.p, op.args["oracle"]
    res = dec.residuals
    if not all(b < a for a, b in zip(res, res[1:])):
        return CheckResult(False, "residuals do not decrease")
    bound = 2.0 * (1.0 + 2.0 * math.pi / (1.0 - p)) * dec.f_norm_p
    if dec.budget > bound:
        return CheckResult(False, f"budget {dec.budget:.4g} > bound {bound:.4g}")
    exact_norm = oracle.norm_p(p)
    norm_err = abs(dec.f_norm_p - exact_norm) / exact_norm
    if norm_err > NORM_RTOL:
        return CheckResult(False, f"||f||_p^p off by {norm_err:.3g}")
    use = max((s.bound_ratio for s in dec.splits), default=0.0) * (1.0 - p) / (2 * math.pi)
    S = dec.source.partial_sum()
    worst = 0.0
    for item in recovery:
        x, y, value = item["x"], item["y"], item["value"]
        want = atom_sum_poisson(S, x, y)
        if abs(value - want) > RECOVERY_QUAD_RTOL * abs(want):
            return CheckResult(False, f"recovery at x={x} is {value:.8g}, the atom "
                                      f"sum's Poisson extension is {want:.8g}")
        worst = max(worst, abs(value - oracle.poisson(x, y)) / oracle.poisson(x, y))
    return CheckResult(True, rel_err=worst, bound_use=use)


def _probe_points(seed_key: int, real_poles, n: int = 24):
    rng = np.random.default_rng(seed_key)
    line = rng.uniform(-20.0, 20.0, n)
    for x in real_poles:
        line = line[np.abs(line - x) > 1e-2]
    off = np.concatenate([rng.uniform(-4, 4, n) + 1j * rng.uniform(0.1, 3.0, n),
                          rng.uniform(-4, 4, n) - 1j * rng.uniform(0.1, 3.0, n)])
    return line.astype(complex), off


def _check_split(op: Op) -> CheckResult:
    res, R, p = op.result, op.args["R"], op.p
    limit = 2.0 * math.pi / (1.0 - p)
    if res.bound_ratio > limit:
        return CheckResult(False, f"bound ratio {res.bound_ratio:.4g} > {limit:.4g}")
    line, off = _probe_points(R.n, res.real_poles)
    scale = R.sup_bound_on_line()
    err = float(np.max(np.abs(res.P.eval(off) + res.Q.eval(off) - R.eval(off))))
    pv, qv = np.abs(res.P.eval(line)), np.abs(res.Q.eval(line))
    if R.neg_degree == 0 or R.pos_degree == 0:
        mass = 0.0  # one-sided atoms are returned whole, with a zero partner
        if np.any(pv > 0.0) and np.any(qv > 0.0):
            return CheckResult(False, "one-sided atom split into two pieces")
    else:
        mass = float(np.max(np.abs(pv - qv) / (pv + qv + 1e-300)))
    rel = max(err / scale, mass)
    if err > IDENTITY_RTOL * scale:
        return CheckResult(False, f"P+Q-R = {err:.3g}", rel)
    if mass > 1e-8:
        return CheckResult(False, f"|P| != |Q| on the line ({mass:.3g})", rel)
    return CheckResult(True, rel_err=rel, bound_use=res.bound_ratio / limit)


def _check_blend(op: Op) -> CheckResult:
    G, R1, R2 = op.result, op.args["R1"], op.args["R2"]
    xs = [a.real for a, _ in G.poles]
    if not xs or any(abs(a.imag) > 1e-12 for a, _ in G.poles):
        return CheckResult(False, "blend has a non-real pole")
    m = 2 * max(R1.n, R2.n) + 2
    es = cayley.beta(np.array(xs, dtype=complex)) ** m
    e = complex(es[0])
    if np.max(np.abs(es - e)) > 1e-8:
        return CheckResult(False, "real poles disagree on e^{i phi}")
    _, off = _probe_points(R1.n + 7, xs)
    bm = cayley.beta(off) ** m
    want = (-e * R1.eval(off) + bm * R2.eval(off)) / (bm - e)
    scale = R1.sup_bound_on_line() + R2.sup_bound_on_line()
    err = float(np.max(np.abs(G.eval(off) - want)))
    if err > IDENTITY_RTOL * scale:
        return CheckResult(False, f"blend identity off by {err:.3g}", err / scale)
    return CheckResult(True, rel_err=err / scale)


def _check_verify(op: Op) -> CheckResult:
    (report, raw), entry = op.result, op.args["entry"]
    worst = None
    if raw:
        worst = 0.0
        for z, pv, cv, exact in raw["extension"]:
            worst = max(worst, abs(pv - exact) / abs(exact), abs(cv - exact) / abs(exact))
        for z, v in raw["reconstruct"]:
            exact = entry.f(np.array([z]))[0]
            worst = max(worst, abs(v - exact) / abs(exact))
    if not report["all_ok"]:
        bad = [c["check"] for c in report["checks"] if not c["ok"]]
        return CheckResult(False, f"verify checks failed: {bad}", worst)
    return CheckResult(True, rel_err=worst)


def _check_extend(op: Op) -> CheckResult:
    (pv, cv), g, z = op.result, op.args["g"], op.args["z"]
    if g.upper:
        want_p = want_c = g.at(z)
    else:  # lower-analytic data: Poisson reflects, Cauchy vanishes
        want_p, want_c = g.at(z.conjugate()), 0.0
    dev = max(abs(pv - want_p), abs(cv - want_c))
    if dev > EXTENSION_ATOL:
        return CheckResult(False, f"extension off by {dev:.3g}", dev / abs(want_p))
    return CheckResult(True, rel_err=dev / abs(want_p))


def _check_quasinorm(op: Op) -> CheckResult:
    # The quasinorm integrates the trigonometric interpolant of the samples,
    # not f, so f's exact norm is no oracle for it; it must be positive.
    value = op.result.value
    if not (math.isfinite(value) and value > 0.0):
        return CheckResult(False, f"quasinorm {value!r} is not positive")
    return CheckResult(True)


_CHECKS = {"decompose": _check_decompose, "split": _check_split,
           "blend": _check_blend, "verify": _check_verify, "extend": _check_extend,
           "quasinorm": _check_quasinorm}


def useful_quads(op: Op) -> int:
    """Quadratures of a phi-scan whose value the returned result keeps."""
    if op.kind == "split" and op.result is not None:
        R = op.args["R"]
        return 1 if R.neg_degree == 0 or R.pos_degree == 0 else 2
    if op.kind == "blend" and op.result is not None:
        return 2
    if op.kind == "decompose" and op.result is not None:
        return 2 * len(op.result[0].splits)
    return 0
