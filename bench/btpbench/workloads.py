"""Seeded inputs and per-job correctness checks for the four workloads.

Every workload is a list of ``Job``s: an argv for ``btpgeo.cli.main`` plus a
check that judges the job's exit code and captured stdout.  The program sees
only these argv lists and the JSON files written next to them.

Inputs are stratified so that the cost mix of a workload is the same for
every seed: the seed picks the digits, signs and order of the parameters,
never how many inputs of each kind or size there are.  That keeps runs with
different seeds comparable.

Algebra JSON is written here from the structure equations of each family,
not through ``btpgeo``'s own serializer, so a serializer change cannot
silently change the inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

import numpy as np

from btpgeo import goldens

FAMILIES = ("a_st", "b_zt", "n3", "vaisman54", "sl2c")
EXPONENTS = (-6, -5, -4, -2, 0, 2, 4, 6)  # torsion scale a = 10**e
HEIGHTS = (1, 10, 10**2, 10**4, 10**6)   # bound on |numerator| and denominator

RICCI_EINSTEIN = Fraction(5, 2)          # forced by the verified curvature table

TORSION_A_COPIES = 8                     # n3, vaisman54 and companion jobs each
# float_sampling: one job for each sample count.  The CLI's default is
# 10000 samples, about 10 s per job on a 2-vCPU VM, too long to repeat an
# input within a run.  In the hundreds the sectional and Ricci loop still
# takes about nine tenths of a job, as at 10000.  Thirty counts in even
# steps leave ten inputs beyond a p66 tail and put no group edge at p50 or
# at the tail.
SAMPLE_COUNTS = tuple(range(100, 220, 4))

WORKLOADS = ("lie_exact", "lie_float", "verify_suites", "float_sampling")


@dataclass(frozen=True)
class Job:
    name: str
    argv: List[str]
    check: Callable[[int, str], Optional[str]]   # -> None, or why it failed


# ---------------------------------------------------------------------------
# scalars and algebra JSON
# ---------------------------------------------------------------------------

def _rational(rng: random.Random, height: int, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if q or not nonzero:
            return q


def _exact(re: Fraction, im: Fraction = Fraction(0)):
    return {"re": str(re), "im": str(im)}


def _float(re: Fraction, im: Fraction = Fraction(0)):
    return {"re": float(re), "im": float(im)}


@dataclass(frozen=True)
class AlgebraSpec:
    family: str
    a: Fraction
    s: Fraction = Fraction(0)        # a_st: s; b_zt: Re z
    t: Fraction = Fraction(0)
    z_im: Fraction = Fraction(0)     # b_zt: Im z

    def entries(self):
        """(table, j, i, k, re, im) with 1-based indices and i < k for C."""
        a, s, t = self.a, self.s, self.t
        if self.family == "a_st":
            return [("C", 1, 1, 3, 0, -s), ("C", 2, 2, 3, 0, -t),
                    ("D", 1, 1, 3, 0, s), ("D", 2, 2, 3, 0, t),
                    ("D", 1, 3, 1, a, 0), ("D", 2, 3, 2, -a, 0)]
        if self.family == "b_zt":
            return [("C", 2, 1, 2, s, self.z_im), ("C", 2, 2, 3, 0, -t),
                    ("D", 2, 2, 1, s, self.z_im), ("D", 2, 2, 3, 0, t),
                    ("D", 1, 3, 1, a, 0), ("D", 2, 3, 2, -a, 0)]
        if self.family == "n3":
            return [("D", 1, 3, 1, a, 0), ("D", 2, 3, 2, -a, 0)]
        if self.family == "vaisman54":
            return [("D", 1, 3, 1, a, 0), ("D", 2, 3, 2, a, 0)]
        if self.family == "sl2c":
            return [("C", 3, 1, 2, -a, 0), ("C", 1, 2, 3, -a, 0),
                    ("C", 2, 1, 3, a, 0)]
        raise ValueError(f"unknown family {self.family!r}")

    def to_json(self, label: str, exact: bool):
        coef = _exact if exact else _float
        out = {"n": 3, "C": [], "D": [], "label": label}
        for table, j, i, k, re, im in self.entries():
            if re or im:
                out[table].append({"j": j, "i": i, "k": k,
                                   "coef": coef(Fraction(re), Fraction(im))})
        return out


def algebra_specs(seed: int) -> List[AlgebraSpec]:
    """Every family at every torsion scale 10**-6 .. 10**6, once each.

    The heights of s, t and z cycle through HEIGHTS over the (family, scale)
    grid, so each seed draws the same number of parameters of each height.
    A quarter of the a_st members sit on the Calabi-Yau line t = -s.
    """
    rng = random.Random(f"algebras:{seed}")
    specs = []
    for f_idx, family in enumerate(FAMILIES):
        for e_idx, e in enumerate(EXPONENTS):
            a = Fraction(10) ** e
            height = HEIGHTS[(f_idx + e_idx) % len(HEIGHTS)]
            if family == "a_st":
                s = _rational(rng, height, nonzero=True)
                t = -s if e_idx % 4 == 0 else _rational(rng, height)
                specs.append(AlgebraSpec(family, a, s=s, t=t))
            elif family == "b_zt":
                specs.append(AlgebraSpec(family, a, s=_rational(rng, height, nonzero=True),
                                         z_im=_rational(rng, height),
                                         t=_rational(rng, height)))
            else:
                specs.append(AlgebraSpec(family, a))
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _json_check(body: Callable[[dict], Optional[str]], want_rc: int = 0):
    """A job check: the exit code, then ``body`` on the parsed JSON report."""
    def check(rc: int, stdout: str) -> Optional[str]:
        if rc != want_rc:
            return f"exit code {rc}, want {want_rc}"
        try:
            rep = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        return body(rep)
    return check


def _form(items):
    """InvariantForm JSON -> {(phi, phibar): (re, im)} with exact rationals."""
    out = {}
    for it in items:
        c = it["coef"]
        out[(tuple(it["phi"]), tuple(it["phibar"]))] = (Fraction(c["re"]), Fraction(c["im"]))
    return out


def classify_claims(spec: AlgebraSpec):
    """Report fields the paper's family claims fix (the claims cmd_sweep checks)."""
    a = spec.a
    middle = {"type_label": "middle", "balanced": True, "btp": True, "cyt": True,
              "b_rank": 2, "eta": {}, "chern_ricci": {}, "bismut_ricci": {}}
    if spec.family == "a_st":
        return dict(middle, calabi_yau_type=(spec.s + spec.t == 0),
                    nilpotent_steps=None, solvable_steps=3)
    if spec.family == "b_zt":
        return dict(middle, calabi_yau_type=(spec.s == 0 and spec.z_im == 0 and spec.t == 0),
                    nilpotent_steps=None, solvable_steps=3)
    if spec.family == "n3":
        return dict(middle, calabi_yau_type=True, nilpotent_steps=2, solvable_steps=2)
    if spec.family == "vaisman54":
        ric = -4 * a * a
        return {"type_label": "non_balanced", "balanced": False, "btp": True, "cyt": False,
                "b_rank": 2, "nilpotent_steps": 2, "solvable_steps": 2,
                "eta": {((3,), ()): (2 * a, Fraction(0))},
                "chern_ricci": {},
                "bismut_ricci": {((1,), (1,)): (Fraction(0), ric),
                                 ((2,), (2,)): (Fraction(0), ric)}}
    return {"type_label": "chern_flat", "balanced": True, "btp": True, "b_rank": 3,
            "nilpotent_steps": None, "solvable_steps": None, "chern_ricci": {}}


def _claims_mismatch(rep: dict, claims: dict, where: str = "") -> Optional[str]:
    for key, want in claims.items():
        got = _form(rep[key]) if isinstance(want, dict) else rep.get(key)
        if got != want:
            return f"{where}{key} = {got!r}, want {want!r}"
    return None


def check_classify_exact(spec: AlgebraSpec, label: str):
    claims = classify_claims(spec)

    def body(rep):
        if rep.get("label") != label:
            return f"label {rep.get('label')!r}, want {label!r}"
        return _claims_mismatch(rep, claims)
    return _json_check(body)


def check_classify_float(spec: AlgebraSpec):
    """The float label must equal the exact label of the same algebra."""
    want = classify_claims(spec)["type_label"]

    def body(rep):
        if rep.get("type_label") != want:
            return f"float type_label {rep.get('type_label')!r}, exact label {want!r}"
        return None
    return _json_check(body)


def check_verify(example: str):
    """Every check passes except exactly ricci.einstein_constant on wallach."""
    want_failing = {"ricci.einstein_constant"} if example == "wallach" else set()

    def body(rep):
        checks = rep.get("checks") or []
        failing = {c["name"] for c in checks if c["passed"] is not True}
        if rep.get("example") != example or not checks:
            return "report names another example or holds no checks"
        if failing != want_failing:
            return f"failing checks {sorted(failing)}, want {sorted(want_failing)}"
        if rep.get("pass") is not (not want_failing):
            return f"pass = {rep.get('pass')!r}"
        return None
    return _json_check(body, want_rc=1 if want_failing else 0)


def check_companion(a: Fraction):
    """Swapping phi_2 of n3 gives the Vaisman-type nilmanifold, same Bismut connection."""
    n3 = classify_claims(AlgebraSpec("n3", a))
    vaisman = classify_claims(AlgebraSpec("vaisman54", a))

    def body(rep):
        if rep.get("bismut_equal") is not True or rep.get("swap_set") != [2]:
            return "swap does not report an equal Bismut connection on {2}"
        return (_claims_mismatch(rep["original"], n3, "original.")
                or _claims_mismatch(rep["swapped"], vaisman, "swapped."))
    return _json_check(body)


def _table(nested) -> np.ndarray:
    return np.array([[[[complex(float(Fraction(c["re"])), float(Fraction(c["im"])))
                        if isinstance(c, dict) else complex(c)
                        for c in r2] for r2 in r1] for r1 in r0] for r0 in nested])


def _wallach_exact(rep: dict) -> Optional[str]:
    """The exact report must reproduce the golden Chern and Levi-Civita tables."""
    if rep.get("scalar_kind") != "exact":
        return "scalar_kind is not exact"
    for key, golden in (("chern_curvature", goldens.expected_wallach_rc),
                        ("riemannian_11", goldens.expected_wallach_r11)):
        table = rep[key]
        for k, l, i, j in np.ndindex(3, 3, 3, 3):
            c = table[k][l][i][j]
            got = (Fraction(c["re"]), Fraction(c["im"]))
            if got != (golden(k, l, i, j), 0):
                return f"{key}[{k+1}][{l+1}][{i+1}][{j+1}] = {got}, want {golden(k, l, i, j)}"
    if any(Fraction(c["re"]) or Fraction(c["im"])
           for c in np.array(rep["riemannian_20"], dtype=object).ravel()):
        return "riemannian_20 has a nonzero entry"
    return None


check_wallach_exact = _json_check(_wallach_exact)


def ricci_from_tables(r11: np.ndarray, r20: np.ndarray, X: np.ndarray) -> float:
    """Ricci curvature of x = X + conj(X), traced over the unitary base frame.

    An einsum restatement of the sectional-numerator expansion
    -2 R(X,Xb,Y,Yb) + 4 R(X,Yb,Y,Xb) - 2 Re R(X,Yb,X,Yb) - 4 Re(R20 terms),
    written independently of ``btpgeo.charts``.
    """
    def c(t, A, B, C, D):
        return np.einsum("abcd,a,b,c,d->", t, A, B, C, D)

    Xb = X.conj()
    total = 0.0
    for i in range(3):
        for unit in (1, 1j):
            Y = np.zeros(3, complex)
            Y[i] = unit
            Yb = Y.conj()
            num = (-2 * c(r11, X, Xb, Y, Yb) + 4 * c(r11, X, Yb, Y, Xb)
                   - 2 * c(r11, X, Yb, X, Yb).real
                   - 4 * (c(r20, X, Y, X, Yb) - c(r20, X, Y, Y, Xb)).real)
            total += num.real
    return total / 2 / (2 * float(np.vdot(X, X).real))


def check_float_sampling(seed: int, samples: int):
    def body(rep):
        smp = rep.get("sampling") or {}
        if smp.get("seed") != seed or smp.get("samples") != samples:
            return "sampling block does not echo the seed and sample count"
        if not smp["min_sectional_numerator"] >= -1e-12:
            return f"min_sectional_numerator {smp['min_sectional_numerator']!r} < -1e-12"
        r11, r20 = _table(rep["riemannian_11"]), _table(rep["riemannian_20"])
        dirs = [np.eye(3)[0], np.array([1, 1j, -1]), np.array([0.3 - 2j, 1.5, 0.25j])]
        lams = [ricci_from_tables(r11, r20, X.astype(complex)) for X in dirs]
        if any(abs(lam - float(RICCI_EINSTEIN)) > 1e-9 for lam in lams):
            return f"Ricci curvature from riemannian_11 is {lams}, want 5/2"
        lo, hi = smp["ricci_range"]
        if not (math.isfinite(lo) and math.isfinite(hi)
                and abs(lo - lams[0]) <= 1e-9 and abs(hi - lams[0]) <= 1e-9):
            return f"ricci_range {[lo, hi]} is not within 1e-9 of {lams[0]}"
        return None
    return _json_check(body)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _classify_jobs(seed: int, workdir: str, exact: bool) -> List[Job]:
    jobs = []
    kind = "exact" if exact else "float"
    for n, spec in enumerate(algebra_specs(seed)):
        label = f"{spec.family}#{n}"
        path = os.path.join(workdir, f"{kind}_{n:03d}.json")
        _write(path, spec.to_json(label, exact))
        check = check_classify_exact(spec, label) if exact else check_classify_float(spec)
        jobs.append(Job(f"{label}(a=1e{int(round(math.log10(spec.a)))})",
                        ["classify", "--input", path], check))
    return jobs


def _torsion_scales(seed: int) -> List[Fraction]:
    """Positive rationals p/q spread over 1e-3 .. 1e3, heights stratified."""
    rng = random.Random(f"torsion:{seed}")
    out = []
    for k in range(TORSION_A_COPIES):
        height = HEIGHTS[k % len(HEIGHTS)]
        mant = Fraction(rng.randint(1, 9 * height + 9), height + 1)
        out.append(mant * Fraction(10) ** (k % 7 - 3))
    return out


def _verify_jobs(seed: int) -> List[Job]:
    jobs = []
    for a in _torsion_scales(seed):
        jobs.append(Job(f"verify n3 a={a}", ["verify", "--example", "n3", "--torsion-a", str(a)],
                        check_verify("n3")))
        jobs.append(Job(f"verify vaisman54 a={a}",
                        ["verify", "--example", "vaisman54", "--torsion-a", str(a)],
                        check_verify("vaisman54")))
        jobs.append(Job(f"companion n3 swap 2 a={a}",
                        ["companion", "--example", "n3", "--swap", "2", "--torsion-a", str(a)],
                        check_companion(a)))
    for ex in ("a_st", "b_zt", "sl2c", "wallach"):
        jobs.append(Job(f"verify {ex}", ["verify", "--example", ex], check_verify(ex)))
    jobs.append(Job("wallach exact", ["wallach"], check_wallach_exact))
    return jobs


def _sampling_jobs(seed: int) -> List[Job]:
    rng = random.Random(f"sampling:{seed}")
    jobs = []
    for samples in SAMPLE_COUNTS:
        job_seed = rng.randrange(2**31)
        jobs.append(Job(f"wallach float seed={job_seed} samples={samples}",
                        ["wallach", "--float", "--seed", str(job_seed),
                         "--samples", str(samples)],
                        check_float_sampling(job_seed, samples)))
    rng.shuffle(jobs)
    return jobs


def make_jobs(workload: str, seed: int, workdir: str) -> List[Job]:
    """The workload's jobs; classify inputs are written into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "lie_exact":
        return _classify_jobs(seed, workdir, exact=True)
    if workload == "lie_float":
        return _classify_jobs(seed, workdir, exact=False)
    if workload == "verify_suites":
        return _verify_jobs(seed)
    if workload == "float_sampling":
        return _sampling_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
