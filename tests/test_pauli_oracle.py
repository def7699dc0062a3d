"""`simulate` against the exact rational oracle of tests/pauli_oracle.py."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ionsurgery as isg
from ionsurgery.ga import MIN_SUCCESS, _genome_to_circuit, _mutate, _random_genome
from pauli_oracle import exact_outcome, pair_coefficients
from record_simulate_snapshot import INPUTS, NOISES

SNAPSHOT = Path(__file__).parent / "data" / "simulate_snapshot.json"
BOUND = 1e-13  # |simulate - exact| in p everywhere, and in F where p >= MIN_SUCCESS


def errors(circuit, inputs, noise) -> tuple:
    """(|dF| or None where p < MIN_SUCCESS, |dp|) of simulate against the oracle."""
    out = isg.simulate(circuit, inputs, noise)
    f, p = exact_outcome(circuit, inputs, noise)
    dp = abs(Fraction(out.success_probability) - p)
    df = abs(Fraction(out.output_fidelity) - f) if p >= MIN_SUCCESS else None
    return df, dp


def assert_within_bound(cases) -> None:
    worst_f, worst_p, compared = 0, 0, 0
    for circuit, inputs, noise in cases:
        df, dp = errors(circuit, inputs, noise)
        worst_p = max(worst_p, dp)
        if df is not None:
            worst_f, compared = max(worst_f, df), compared + 1
    assert compared > 0
    assert worst_f <= BOUND and worst_p <= BOUND, (float(worst_f), float(worst_p))


def test_simulate_is_within_the_bound_of_exact_on_every_snapshot_case():
    records = json.loads(SNAPSHOT.read_text())
    assert_within_bound((isg.PurificationCircuit.from_dict(r["circuit"]),
                         INPUTS[r["input"]], NOISES[r["noise"]]) for r in records)


@pytest.mark.parametrize("n_pairs", [2, 3, 4, 5])
def test_simulate_is_within_the_bound_of_exact_on_random_genomes(n_pairs):
    rng = np.random.default_rng(900 + n_pairs)
    circuits = []
    for _ in range(4):
        g = _random_genome(rng, n_pairs)
        circuits.append(_genome_to_circuit(_mutate(g, rng, n_pairs, 0.3), n_pairs))
    assert_within_bound((c, inputs, NOISES[noise]) for c in circuits
                        for inputs in INPUTS.values() for noise in ("device", "heavy"))


def test_oracle_equals_the_bbpssw_closed_form_on_werner_inputs_exactly():
    # the float Werner matrices are exactly Bell-diagonal; read their exact
    # Bell weights off the Pauli coefficients and compare in rationals
    for f1, f2 in ((0.94, 0.94), (0.7, 0.9), (0.55, 0.99)):
        pairs = [isg.BellDiagonalState(f, 1 / 3, 1 / 3, 1 / 3) for f in (f1, f2)]
        weights = []
        for pair in pairs:
            c = pair_coefficients(pair.to_density_matrix().entries)
            ii, xx, yy, zz = c[0], c[5], c[10], c[15]
            weights.append(((ii + xx - yy + zz) / 4, (ii + xx + yy - zz) / 4,   # phi+, psi+
                            (ii - xx - yy - zz) / 4, (ii - xx + yy + zz) / 4))  # psi-, phi-
        (a1, b1, c1, d1), (a2, b2, c2, d2) = weights
        p = (a1 + d1) * (a2 + d2) + (b1 + c1) * (b2 + c2)
        assert exact_outcome(isg.bbpssw_circuit(), pairs, isg.IDEAL_NOISE) == (
            (a1 * a2 + d1 * d2) / p, p)
