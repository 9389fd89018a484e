"""Correctness of the three materialization strategies (§3.2).

Each strategy must converge to the *updated* distribution; the exact
oracle on the updated graph is the reference.
"""

import numpy as np
import pytest

from repro.core import (
    SampleMaterialization,
    StrawmanMaterialization,
    VariationalMaterialization,
    learn_approximation,
)
from repro.core.sampling import make_sampler
from repro.graph import BiasFactor, FactorGraph, FactorGraphDelta, IsingFactor
from repro.inference import ExactInference
from repro.util.stats import max_marginal_error

from tests.dense_logdet import dense_approx_precision
from tests.helpers import chain_ising_graph, random_pairwise_graph


def feature_delta(fg, var=0, weight=1.2, key="new-feature"):
    """A delta adding one bias factor (a new feature on one variable)."""
    delta = FactorGraphDelta()
    delta.new_weight_entries.append((key, weight, False))
    delta.new_factors.append(BiasFactor(weight_id=len(fg.weights), var=var))
    return delta


def evidence_delta(var=0, value=True):
    return FactorGraphDelta(evidence_updates={var: value})


class TestStrawman:
    def test_reproduces_base_marginals_on_empty_delta(self):
        fg = chain_ising_graph(5, coupling=0.6, bias=0.2)
        strawman = StrawmanMaterialization(fg, seed=0)
        exact = ExactInference(fg).marginals()
        est = strawman.infer(FactorGraphDelta(), num_sweeps=600, burn_in=50)
        assert max_marginal_error(est, exact) < 0.05

    def test_tracks_updated_distribution(self):
        fg = chain_ising_graph(5, coupling=0.6, bias=0.2)
        strawman = StrawmanMaterialization(fg, seed=0)
        delta = feature_delta(fg, var=2, weight=1.5)
        exact = ExactInference(delta.apply(fg)).marginals()
        est = strawman.infer(delta, num_sweeps=600, burn_in=50)
        assert max_marginal_error(est, exact) < 0.05

    def test_new_variable_in_delta(self):
        fg = chain_ising_graph(3, coupling=0.5)
        strawman = StrawmanMaterialization(fg, seed=1)
        delta = FactorGraphDelta(num_new_vars=1)
        delta.new_weight_entries.append(("J-new", 0.8, False))
        delta.new_factors.append(
            IsingFactor(weight_id=len(fg.weights), i=2, j=3)
        )
        exact = ExactInference(delta.apply(fg)).marginals()
        est = strawman.infer(delta, num_sweeps=800, burn_in=80)
        assert max_marginal_error(est, exact) < 0.06

    def test_evidence_update(self):
        fg = chain_ising_graph(4, coupling=1.0)
        strawman = StrawmanMaterialization(fg, seed=2)
        delta = evidence_delta(0, True)
        exact = ExactInference(delta.apply(fg)).marginals()
        est = strawman.infer(delta, num_sweeps=600, burn_in=50)
        assert est[0] == 1.0
        assert max_marginal_error(est, exact) < 0.06

    def test_world_count_is_exponential(self):
        fg = chain_ising_graph(4)
        strawman = StrawmanMaterialization(fg)
        assert strawman.materialized_worlds == 16

    def test_refuses_large_graphs(self):
        fg = FactorGraph()
        fg.add_variables(25)
        with pytest.raises(ValueError, match="exponential"):
            StrawmanMaterialization(fg)


class TestSamplingStrategy:
    def test_empty_delta_full_acceptance(self):
        """Fig. 9 rule A1: distribution unchanged → 100% acceptance."""
        fg = chain_ising_graph(6, coupling=0.5, bias=0.2)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=400, burn_in=50)
        result = mat.infer(FactorGraphDelta())
        assert result.acceptance_rate == 1.0
        exact = ExactInference(fg).marginals()
        assert max_marginal_error(result.marginals, exact) < 0.06

    def test_small_update_high_acceptance(self):
        fg = chain_ising_graph(6, coupling=0.5, bias=0.2)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=600, burn_in=50)
        delta = feature_delta(fg, var=3, weight=0.3)
        result = mat.infer(delta)
        assert result.acceptance_rate > 0.5
        exact = ExactInference(delta.apply(fg)).marginals()
        assert max_marginal_error(result.marginals, exact) < 0.08

    def test_large_update_low_acceptance(self):
        """The bigger the distribution change, the lower the acceptance."""
        fg = chain_ising_graph(6, coupling=0.5, bias=0.0)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=800, burn_in=50)
        small = mat.probe_acceptance(feature_delta(fg, weight=0.2), probe=100)
        big = mat.probe_acceptance(feature_delta(fg, weight=3.0), probe=100)
        assert big < small

    def test_evidence_delta_still_converges(self):
        fg = chain_ising_graph(5, coupling=0.8, bias=0.0)
        mat = SampleMaterialization(fg, seed=3)
        mat.materialize(num_samples=1500, burn_in=50)
        delta = evidence_delta(0, True)
        result = mat.infer(delta)
        exact = ExactInference(delta.apply(fg)).marginals()
        assert result.marginals[0] == 1.0
        assert max_marginal_error(result.marginals, exact) < 0.12

    def test_cursor_consumes_bundle(self):
        fg = chain_ising_graph(4)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=100)
        mat.infer(FactorGraphDelta(), num_steps=60)
        assert mat.samples_remaining == 40
        result = mat.infer(FactorGraphDelta(), num_steps=60)
        assert result.exhausted
        assert mat.samples_remaining == 0

    def test_time_budget_materialization(self):
        fg = chain_ising_graph(4)
        mat = SampleMaterialization(fg, seed=0)
        collected = mat.materialize(time_budget=0.2)
        assert collected > 0
        assert mat.materialization_seconds <= 1.0

    def test_empty_rematerialization_keeps_cursor(self):
        """Regression: a failed/empty re-materialization (here a zero
        time budget) kept the old bundle but reset the cursor, silently
        reviving already-consumed samples as MH proposals."""
        fg = chain_ising_graph(4)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=10, burn_in=5)
        mat.infer(FactorGraphDelta(), num_steps=6)
        assert mat.samples_remaining == 4
        collected = mat.materialize(time_budget=0.0)
        assert collected == 10  # old bundle retained...
        assert mat.samples_remaining == 4  # ...cursor too
        result = mat.infer(FactorGraphDelta(), num_steps=10)
        assert result.proposals_used == 4  # only the unconsumed tail
        # A *successful* re-materialization does replace bundle + cursor.
        mat.materialize(num_samples=5, burn_in=1)
        assert mat.samples_remaining == 5

    def test_storage_is_bit_packed(self):
        # The bundle is genuinely bit-packed: 8 variables per byte, the
        # final byte of each row padded — so 7 variables cost 1 byte/row.
        fg = chain_ising_graph(7)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=50)
        assert mat.storage_bits() == 50 * 8
        assert mat._packed.dtype == np.uint8
        assert mat.samples.shape == (50, 7)
        # 17 variables need 3 bytes/row (24 bits).
        fg = chain_ising_graph(17)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=10)
        assert mat.storage_bits() == 10 * 24
        assert mat.samples.shape == (10, 17)


class TestVariationalStrategy:
    def test_solve_logdet_respects_constraints(self):
        fg = random_pairwise_graph(6, density=0.5, seed=0)
        lam = 0.05
        samples = make_sampler(fg, seed=0).sample_worlds(400, burn_in=20)
        approx = learn_approximation(fg, lam=lam, samples=samples)
        X = dense_approx_precision(approx)
        spins = np.where(samples, 1.0, -1.0)
        centered = spins - spins.mean(axis=0)
        M = centered.T @ centered / len(spins)
        nz = np.zeros_like(X, dtype=bool)
        for i, j in fg.neighbor_pairs():
            nz[i, j] = nz[j, i] = True
        assert nz.any() and not nz.all()
        # Symmetric, PD, and box-constrained.
        assert np.allclose(X, X.T)
        assert np.all(np.linalg.eigvalsh(X) > 0)
        assert np.allclose(np.diag(X), np.diag(M) + 1.0 / 3.0)
        assert np.all(np.abs(X - M)[nz] <= lam + 1e-12)
        off = ~nz & ~np.eye(fg.num_vars, dtype=bool)
        assert np.all(X[off] == 0.0)

    def test_lambda_controls_sparsity(self):
        """Fig. 6: larger λ → fewer factors."""
        fg = random_pairwise_graph(10, density=0.6, seed=1)
        dense = learn_approximation(fg, lam=0.01, num_samples=500, seed=0)
        sparse = learn_approximation(fg, lam=0.5, num_samples=500, seed=0)
        assert sparse.kept_pairs <= dense.kept_pairs

    def test_huge_lambda_drops_all_pairs(self):
        fg = random_pairwise_graph(8, density=0.5, seed=2)
        approx = learn_approximation(fg, lam=10.0, num_samples=300, seed=0)
        assert approx.kept_pairs == 0

    def test_approximation_marginals_close_for_small_lambda(self):
        fg = random_pairwise_graph(7, density=0.4, seed=3, weight_range=0.4)
        mat = VariationalMaterialization(fg, lam=0.02, seed=0)
        mat.materialize(num_samples=1500)
        est = mat.infer(num_samples=1500, burn_in=50)
        exact = ExactInference(fg).marginals()
        assert max_marginal_error(est, exact) < 0.12

    def test_splice_new_factor_shifts_marginal(self):
        fg = random_pairwise_graph(6, density=0.4, seed=4)
        mat = VariationalMaterialization(fg, lam=0.05, seed=0)
        mat.materialize(num_samples=800)
        before = mat.infer(num_samples=800, burn_in=50)[0]
        mat.apply_update(fg, feature_delta(fg, var=0, weight=2.0))
        after = mat.infer(num_samples=800, burn_in=50)[0]
        assert after > before + 0.1

    def test_splice_evidence(self):
        fg = random_pairwise_graph(5, density=0.4, seed=5)
        mat = VariationalMaterialization(fg, lam=0.05, seed=0)
        mat.materialize(num_samples=400)
        mat.apply_update(fg, evidence_delta(2, True))
        est = mat.infer(num_samples=200)
        assert est[2] == 1.0

    def test_splice_removed_factor_cancels_energy(self):
        """Removed factors are spliced as negated copies: the spliced
        graph's energy difference equals the delta's."""
        fg = chain_ising_graph(4, coupling=0.8, bias=0.1)
        mat = VariationalMaterialization(fg, lam=0.05, seed=0)
        mat.materialize(num_samples=300)
        approx_before = mat.current
        delta = FactorGraphDelta(removed_factor_ids={0})
        mat.apply_update(fg, delta)
        rng = np.random.default_rng(0)
        removed = fg.factors[0]
        for _ in range(10):
            world = rng.random(4) < 0.5
            spliced_shift = mat.current.energy(world) - approx_before.energy(world)
            assert spliced_shift == pytest.approx(
                -removed.energy(world, fg.weights)
            )

    def test_evidence_vars_get_no_couplings(self):
        fg = chain_ising_graph(5, coupling=0.9)
        fg.set_evidence(2, True)
        approx = learn_approximation(fg, lam=0.05, num_samples=300, seed=0)
        for factor in approx.graph.factors:
            if isinstance(factor, IsingFactor):
                assert 2 not in (factor.i, factor.j)
