"""Regenerate reference.json, the output checks' reference, from a phasekit tree.

The committed manifest was generated from the seed code (commit 6f530a9):

    git archive 6f530a9 src | tar -x -C <dir>
    python3 perfbench/make_reference.py --src <dir>/src

It holds, per preset CSV, the sha256, header, row count and every 200th row
as written (17 significant digits); and, per RK4 op, the Hamiltonian and the
quadratic forms of each channel in the dynamical basis, from which the
benchmark computes exact (eigendecomposition) references for any start. The
script checks those forms against the program's own eigen pipeline and
refuses to write a manifest they do not reproduce.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as wl

SAMPLE_EVERY = 200
# Stated tolerances of the output checks. CSV samples: relative (absolute
# below 1) deviation from the seed bytes' values. RK4: deviation from the exact
# propagation; at the seed the worst seen were about 2e-8 (channels) and
# 3e-6 (stiff states).
CSV_TOLERANCE = 1e-10
CHANNEL_TOLERANCE = 1e-6
STATE_TOLERANCE = 1e-4
FORM_AGREEMENT = 1e-11


def encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def figures_reference(pk) -> dict:
    files: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for preset in wl.PRESETS:
            out = Path(tmp) / preset
            entries = {}
            for path in pk.run_figure(preset, out):
                data = path.read_bytes()
                lines = data.decode("utf-8").split("\n")[:-1]
                rows = len(lines) - 1
                samples = [[r, lines[r + 1]] for r in range(0, rows, SAMPLE_EVERY)]
                if samples[-1][0] != rows - 1:
                    samples.append([rows - 1, lines[rows]])
                entries[path.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                      "header": lines[0], "rows": rows,
                                      "samples": samples}
            files[preset] = entries
    return {"tolerance": CSV_TOLERANCE, "sample_every": SAMPLE_EVERY, "files": files}


def channel_forms(pk, system: str, n: int | None) -> dict:
    """Each channel as a quadratic form on dynamical-basis states."""
    if system == "boson":
        basis = pk.boson_basis(n)
        cos_cn, sin_cn = pk.boson_cn_phase(basis)
        cos_u, sin_u, _ = pk.boson_unitary_phase(basis)
        w = pk.boson_number_diff(basis)
        embed = np.eye(n + 1)
    else:
        space = pk.fermion_sector()
        cos_cn, sin_cn = pk.fermion_cn_phase(space, "l_up", "r_down")
        cos_u, sin_u, _ = pk.fermion_unitary_phase(space, "l_up", "r_down")
        w = pk.well_number_diff(space)
        embed = pk.fermion_pair_embedding()

    def dyn(op: np.ndarray) -> dict:
        return encode_matrix(embed.conj().T @ op @ embed)

    def mean(op, scale=1.0):
        return {"kind": "mean", "A": dyn(op.entries), "scale": scale}

    def spread(op, kind, scale=1.0):
        a = op.entries
        return {"kind": kind, "A": dyn(a), "B": dyn(a @ a), "scale": scale}

    forms = {"avgC_CN": mean(cos_cn), "avgS_CN": mean(sin_cn),
             "avgC_U": mean(cos_u), "avgS_U": mean(sin_u),
             "fluctC": spread(cos_u, "std"), "fluctS": spread(sin_u, "std"),
             "avgW": mean(w), "fluctW": spread(w, "std")}
    if system == "boson":
        forms["xi"] = spread(w, "var", 1.0 / n)
    else:
        forms["xi_variance"] = spread(w, "var", 0.5)
        forms["xi_second_moment"] = {"kind": "mean", "A": dyn(w.entries @ w.entries),
                                     "scale": 0.5}
    return forms


def hamiltonian(pk, params: dict) -> np.ndarray:
    if params["system"] == "boson":
        return pk.boson_dimer_hamiltonian(pk.boson_basis(params["N"]), params["ubar"]).entries
    return pk.fermion_pair_hamiltonian(params["ubar"]).entries


def rk4_reference(pk) -> dict:
    ops = {}
    for name, params in wl.RK4_OPS.items():
        spec = {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()}
        spec["hamiltonian"] = encode_matrix(hamiltonian(pk, params))
        if "channels" in params:
            spec["forms"] = channel_forms(pk, params["system"], params.get("N"))
        ops[name] = spec
    return {"channel_tolerance": CHANNEL_TOLERANCE, "state_tolerance": STATE_TOLERANCE,
            "ops": ops}


def self_check(pk, reference: dict, work: Path) -> None:
    """The forms must reproduce the program's eigen pipeline, and the program's
    RK4 must sit inside the stated tolerances, for a random start per op."""
    ctx = wl.Context(pk, reference, work)
    rng = np.random.default_rng(12345)
    for name, params in wl.RK4_OPS.items():
        spec = reference["rk4"]["ops"][name]
        tau = np.linspace(0.0, params["tau_max"], params["steps"])
        h = wl.decode_matrix(spec["hamiltonian"])
        psi0 = wl.random_start(rng, h.shape[0])
        exact = wl.reference_states(h, psi0, tau)
        eigen = pk.eigen_propagate(hamiltonian(pk, params), psi0, tau).states
        if not np.max(np.abs(eigen - exact)) < FORM_AGREEMENT:
            raise SystemExit(f"{name}: reference Hamiltonian does not reproduce eigen_propagate")
        if "channels" in params:
            cfg = pk.ScenarioConfig(system=params["system"], N=params.get("N"),
                                    ubar=params["ubar"], tau_max=params["tau_max"],
                                    steps=params["steps"], initial=tuple(psi0),
                                    channels=params["channels"])
            series = pk.run_scenario(cfg)
            values = np.column_stack([series.tau_grid]
                                     + [series.channels[c] for c in params["channels"]])
            problem = wl.check_channels(values, exact, spec, FORM_AGREEMENT)
            if problem:
                raise SystemExit(f"{name}: channel forms disagree with run_scenario: {problem}")
            op = wl.Rk4CliOp(ctx, name, psi0)
        else:
            op = wl.StiffOp(ctx, psi0)
        elapsed, problem = wl.run_op(op)
        if problem:
            raise SystemExit(f"program RK4 outside the stated tolerance: {problem}")
        print(f"{name}: program RK4 within tolerance ({elapsed:.2f} s)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=wl.SRC,
                        help="the src/ directory of the phasekit tree to use")
    args = parser.parse_args()
    pk = wl.load_program(args.src)
    reference = {
        "generated_by": "python3 perfbench/make_reference.py --src <seed tree>/src",
        "seed_commit": "6f530a9",
        "figures": figures_reference(pk),
        "rk4": rk4_reference(pk),
    }
    with tempfile.TemporaryDirectory() as tmp:
        self_check(pk, reference, Path(tmp))
    wl.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n",
                            encoding="utf-8")
    print(f"wrote {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
