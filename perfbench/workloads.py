"""Workloads of the phasekit benchmark: their operations and output checks.

An operation ("op") is one call of a public entry point of the program:
``phasekit.cli.main([...])`` for the command line, or ``rk4_propagate`` for
the stiff propagation the command line cannot run. Each op is timed from
call to return; preparing its inputs and checking its outputs happen
outside that interval.

Workloads (one round is one pass over the workload's ops):

* ``figures``: ``figure figK --out <fresh empty dir>`` for the 11 presets,
  in an order the seed shuffles anew for every round.
* ``rk4``: two ``run --integrator rk4`` commands (boson N=10 ubar=0.05 and
  fermion ubar=5 on the default grid) and one stiff ``rk4_propagate`` call
  (boson N=10 ubar=5, dtau=1e-4, 2001 points on [0, 5]). The seed draws the
  random normalized start of each op.
* ``verify``: the default ``verify`` battery; the seed is not used.

Every check compares against ``reference.json``, which was generated from the
seed code by ``make_reference.py``; a corrupt or missing reference entry
makes the affected ops fail, it never stops the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("figures", "rk4", "verify")

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
           "fig9", "fig10", "fig11")

BOSON_CHANNELS = ("avgC_CN", "avgS_CN", "avgC_U", "avgS_U",
                  "fluctC", "fluctS", "avgW", "fluctW", "xi")
FERMION_CHANNELS = ("avgC_CN", "avgS_CN", "avgC_U", "avgS_U",
                    "fluctC", "fluctS", "avgW", "fluctW",
                    "xi_variance", "xi_second_moment")

# The two command-line RK4 ops use the default grid (tau_max=40, 2001 points,
# so dtau=1e-3 and 40 000 substeps). The stiff op goes through the library:
# the command line derives dtau from the first grid interval and then rejects
# it against the smallest one, so no CLI grid with spacing <= 1e-3 runs.
RK4_OPS = {
    "boson": {"system": "boson", "N": 10, "ubar": 0.05, "tau_max": 40.0,
              "steps": 2001, "channels": BOSON_CHANNELS},
    "fermion": {"system": "fermion", "ubar": 5.0, "tau_max": 40.0,
                "steps": 2001, "channels": FERMION_CHANNELS},
    "stiff": {"system": "boson", "N": 10, "ubar": 5.0, "tau_max": 5.0,
              "steps": 2001, "dtau": 1e-4},
}

# The verify battery has 20 checks; squeezing-closed-form fails by design.
VERIFY_PASSES = 19
VERIFY_EXPECTED_FAIL = "squeezing-closed-form"

# Exceptions an output check may raise on a corrupt reference or output.
CHECK_ERRORS = (KeyError, TypeError, ValueError, IndexError, AttributeError,
                OSError, UnicodeDecodeError)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable phasekit under src/."""


def load_program(src: Path = SRC):
    """Import phasekit and phasekit.cli from ``src`` (this checkout's src/)."""
    src = src.resolve()
    if not (src / "phasekit" / "__init__.py").is_file():
        raise ProgramMissing(f"no phasekit package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import phasekit
    import phasekit.cli  # noqa: F401  (binds phasekit.cli)

    if Path(phasekit.__file__).resolve().parent != src / "phasekit":
        raise ProgramMissing(f"phasekit imported from {phasekit.__file__}, not {src}")
    return phasekit


def load_reference(path: Path = REFERENCE) -> dict:
    """The reference manifest, or an empty one (every check then fails)."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


@dataclass
class Context:
    """What every op of one benchmark process shares."""

    program: object
    reference: dict
    work: Path
    csv_files: int = 0
    csv_identical: int = 0


@dataclass
class Workload:
    name: str
    first_op: object
    rounds: object  # callable: round index -> list of ops
    # fresh-process probes per untraced run; rk4's first op takes ~1 s, so it
    # gets fewer to keep a run under about 40 s
    probes: int = 12


def run_cli(argv: list[str]) -> tuple[float, int, str]:
    """One timed in-process command; returns (seconds, exit code, stdout)."""
    main = sys.modules["phasekit.cli"].main  # looked up per call: tracing may wrap it
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue()


def _close(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.isfinite(got))
                and np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


# ---------------------------------------------------------------------------
# figures


def compare_csv(text: str, ref: dict, tol: float) -> Optional[str]:
    """None if the CSV text matches the reference header, size and samples."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "no final newline"
    if lines[0] != ref["header"]:
        return f"header {lines[0]!r} != {ref['header']!r}"
    body = lines[1:-1]
    if len(body) != ref["rows"]:
        return f"{len(body)} rows, expected {ref['rows']}"
    width = len(ref["header"].split(","))
    values = np.array([row.split(",") for row in body], dtype=float)
    if values.shape != (ref["rows"], width) or not np.all(np.isfinite(values)):
        return "malformed or non-finite rows"
    for row, line in ref["samples"]:
        want = np.array(line.split(","), dtype=float)
        if not _close(values[row], want, tol):
            return f"row {row} differs from the reference beyond {tol:g}"
    return None


class FigureOp:
    def __init__(self, ctx: Context, preset: str):
        self.ctx = ctx
        self.preset = preset
        self.label = f"figure {preset}"

    def prepare(self) -> None:
        self.out = Path(tempfile.mkdtemp(prefix=f"{self.preset}-", dir=self.ctx.work))

    def call(self) -> float:
        elapsed, self.code, _ = run_cli(["figure", self.preset, "--out", str(self.out)])
        return elapsed

    def check(self) -> Optional[str]:
        if self.code != 0:
            return f"exit {self.code}"
        ref = self.ctx.reference["figures"]
        expected = ref["files"][self.preset]
        written = sorted(p.name for p in self.out.iterdir())
        if written != sorted(expected):
            return f"wrote {len(written)} files, expected {len(expected)}"
        for name in written:
            data = (self.out / name).read_bytes()
            self.ctx.csv_files += 1
            if hashlib.sha256(data).hexdigest() == expected[name]["sha256"]:
                self.ctx.csv_identical += 1
                continue
            problem = compare_csv(data.decode("utf-8"), expected[name], ref["tolerance"])
            if problem:
                return f"{name}: {problem}"
        return None

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


def figures_workload(ctx: Context, seed: int) -> Workload:
    rng = random.Random(seed)
    orders: list[list[str]] = []

    def rounds(index: int) -> list[FigureOp]:
        while len(orders) <= index:
            order = list(PRESETS)
            rng.shuffle(order)
            orders.append(order)
        return [FigureOp(ctx, p) for p in orders[index]]

    return Workload("figures", FigureOp(ctx, PRESETS[0]), rounds)


# ---------------------------------------------------------------------------
# rk4


def decode_matrix(m: dict) -> np.ndarray:
    re = np.array(m["re"], dtype=float)
    im = np.array(m["im"], dtype=float)
    if re.ndim != 2 or re.shape != im.shape or re.shape[0] != re.shape[1]:
        raise ValueError("reference matrix is not square")
    return re + 1j * im


def reference_states(h: np.ndarray, psi0: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Exact states on the grid from the reference Hamiltonian (numpy only)."""
    energies, vectors = np.linalg.eigh(h)
    weights = vectors.conj().T @ psi0
    return (np.exp(-1j * np.outer(tau, energies)) * weights) @ vectors.T


def _quad(op: np.ndarray, states: np.ndarray) -> np.ndarray:
    return np.einsum("ti,ij,tj->t", states.conj(), op, states).real


def check_channels(values: np.ndarray, states: np.ndarray, spec: dict,
                   tol: float) -> Optional[str]:
    """Compare CSV channel columns with the reference quadratic forms.

    ``mean`` channels are scale*<A>; ``var`` channels scale*(<B> - <A>^2);
    ``std`` channels are compared squared, against <B> - <A>^2, so that the
    square root near a zero variance does not magnify integration error.
    """
    for col, name in enumerate(spec["channels"], start=1):
        ch = spec["forms"][name]
        mean = _quad(decode_matrix(ch["A"]), states)
        if ch["kind"] == "mean":
            got, want = values[:, col], ch["scale"] * mean
        else:
            var = _quad(decode_matrix(ch["B"]), states) - mean * mean
            if ch["kind"] == "var":
                got, want = values[:, col], ch["scale"] * var
            elif ch["kind"] == "std":
                got, want = values[:, col] ** 2, ch["scale"] * var
            else:
                raise ValueError(f"unknown channel kind {ch['kind']!r}")
        if not _close(got, want, tol):
            worst = float(np.max(np.abs(got - want)))
            return f"channel {name} deviates by {worst:.3e} (tol {tol:g})"
    return None


def random_start(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _spec_matches(spec: dict, params: dict) -> None:
    for key, value in params.items():
        want = list(value) if isinstance(value, tuple) else value
        if spec[key] != want:
            raise ValueError(f"reference {key}={spec[key]!r}, workload uses {want!r}")


class Rk4CliOp:
    """``run --config <cfg> --integrator rk4`` from a seeded start."""

    def __init__(self, ctx: Context, name: str, psi0: np.ndarray):
        self.ctx = ctx
        self.name = name
        self.label = f"run {name} rk4"
        params = RK4_OPS[name]
        self.params = params
        self.out = ctx.work / f"{name}.csv"
        self.config = ctx.work / f"{name}.cfg"
        amps = ",".join(repr(complex(a)) for a in psi0)
        lines = [f"system={params['system']}"]
        if "N" in params:
            lines.append(f"N={params['N']}")
        lines += [f"ubar={params['ubar']!r}", f"tau_max={params['tau_max']!r}",
                  f"steps={params['steps']}", f"initial={amps}",
                  "channels=" + ",".join(params["channels"]), f"out={self.out}"]
        self.config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.argv = ["run", "--config", str(self.config), "--integrator", "rk4"]
        # the program normalizes the parsed amplitudes; so does the reference
        parsed = np.array([complex(a) for a in amps.split(",")])
        self.psi0 = parsed / np.linalg.norm(parsed)

    def prepare(self) -> None:
        self.out.unlink(missing_ok=True)

    def call(self) -> float:
        elapsed, self.code, _ = run_cli(self.argv)
        return elapsed

    def check(self) -> Optional[str]:
        if self.code != 0:
            return f"exit {self.code}"
        ref = self.ctx.reference["rk4"]
        spec = ref["ops"][self.name]
        _spec_matches(spec, self.params)
        tau = np.linspace(0.0, self.params["tau_max"], self.params["steps"])
        text = self.out.read_text(encoding="utf-8")
        header, _, body = text.partition("\n")
        if header != "tau," + ",".join(self.params["channels"]):
            return f"header {header!r}"
        values = np.array([row.split(",") for row in body.splitlines()], dtype=float)
        if values.shape != (len(tau), 1 + len(self.params["channels"])):
            return f"CSV shape {values.shape}"
        if not np.array_equal(values[:, 0], tau):
            return "tau column differs from the grid"
        states = reference_states(decode_matrix(spec["hamiltonian"]), self.psi0, tau)
        return check_channels(values, states, spec, ref["channel_tolerance"])

    def cleanup(self) -> None:
        self.out.unlink(missing_ok=True)


class StiffOp:
    """Library ``rk4_propagate`` on the stiff problem from a seeded start."""

    def __init__(self, ctx: Context, psi0: np.ndarray):
        self.ctx = ctx
        self.label = "rk4_propagate stiff"
        self.params = RK4_OPS["stiff"]
        self.h = None
        self.psi0 = psi0
        self.tau = np.linspace(0.0, self.params["tau_max"], self.params["steps"])

    def prepare(self) -> None:
        # built on first use, so that a probe's first op is its first program call
        if self.h is None:
            pk = self.ctx.program
            self.h = pk.boson_dimer_hamiltonian(pk.boson_basis(self.params["N"]),
                                                self.params["ubar"])
        self.result = None

    def call(self) -> float:
        propagate = self.ctx.program.rk4_propagate  # looked up per call
        start = time.perf_counter()
        self.result = propagate(self.h, self.psi0, self.tau, dtau=self.params["dtau"])
        return time.perf_counter() - start

    def check(self) -> Optional[str]:
        ref = self.ctx.reference["rk4"]
        spec = ref["ops"]["stiff"]
        _spec_matches(spec, self.params)
        states = np.asarray(self.result.states)
        if states.shape != (len(self.tau), self.params["N"] + 1):
            return f"states shape {states.shape}"
        want = reference_states(decode_matrix(spec["hamiltonian"]), self.psi0, self.tau)
        worst = float(np.max(np.abs(states - want)))
        tol = ref["state_tolerance"]
        if not worst <= tol:
            return f"states deviate by {worst:.3e} (tol {tol:g})"
        return None

    def cleanup(self) -> None:
        self.result = None


def rk4_workload(ctx: Context, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    boson = random_start(rng, RK4_OPS["boson"]["N"] + 1)
    fermion = random_start(rng, 3)
    stiff = random_start(rng, RK4_OPS["stiff"]["N"] + 1)
    ops = [Rk4CliOp(ctx, "boson", boson), Rk4CliOp(ctx, "fermion", fermion),
           StiffOp(ctx, stiff)]
    return Workload("rk4", ops[0], lambda index: ops, probes=6)


# ---------------------------------------------------------------------------
# verify


def check_verify_output(code: int, stdout: str) -> Optional[str]:
    """Accept exactly exit 2 with 19 PASS lines and one FAIL on the
    squeezing closed form (which fails by design)."""
    if code != 2:
        return f"exit {code}, expected 2"
    passed, failed = [], []
    for line in stdout.splitlines():
        status, _, rest = line.partition("  ")
        name = rest.split(":", 1)[0]
        if status == "PASS":
            passed.append(name)
        elif status == "FAIL":
            failed.append(name)
    if len(passed) != VERIFY_PASSES or failed != [VERIFY_EXPECTED_FAIL]:
        return f"{len(passed)} PASS, FAIL {failed}"
    if len(set(passed)) != VERIFY_PASSES or VERIFY_EXPECTED_FAIL in passed:
        return "repeated check names"
    return None


class VerifyOp:
    label = "verify"

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self) -> None:
        pass

    def call(self) -> float:
        elapsed, self.code, self.stdout = run_cli(["verify"])
        return elapsed

    def check(self) -> Optional[str]:
        return check_verify_output(self.code, self.stdout)

    def cleanup(self) -> None:
        self.stdout = ""


def verify_workload(ctx: Context, seed: int) -> Workload:
    op = VerifyOp(ctx)
    return Workload("verify", op, lambda index: [op])


MAKERS = {"figures": figures_workload, "rk4": rk4_workload,
            "verify": verify_workload}


def build(name: str, ctx: Context, seed: int) -> Workload:
    return MAKERS[name](ctx, seed)


def run_op(op, before=None, after=None) -> tuple[Optional[float], Optional[str]]:
    """Prepare, time, check and clean up one op: (seconds or None, failure).

    ``before``/``after`` run just around the timed call (the tracer uses them
    to tag spans with the op). An exception from the program is a failed op,
    not a stopped benchmark.
    """
    op.prepare()
    try:
        if before:
            before()
        try:
            elapsed = op.call()
        finally:
            if after:
                after()
    except Exception as exc:  # the program under test raised: count, go on
        op.cleanup()
        return None, f"{op.label}: raised {type(exc).__name__}: {exc}"
    try:
        problem = op.check()
    except CHECK_ERRORS as exc:
        problem = f"reference or output unusable: {type(exc).__name__}: {exc}"
    op.cleanup()
    return elapsed, (f"{op.label}: {problem}" if problem else None)
