"""Catalog state families: construction, physics, and spec handling."""

import math
import tracemalloc

import numpy as np
import pytest

from mzbell import (DegenerateStateError, DimensionLimitError, ModeSystem,
                    StateSpec, build_state, cli, coherent_state,
                    compute_moments, expectations, fock, fringe_scan, g1, g2,
                    incoherent_anticorrelated, local_realism_verdict,
                    make_pure, mixed_ensemble, noisy_split_photon,
                    number_state, split_input, split_single_photon,
                    thermal_state)
from mzbell.catalog import spec_label, state_to_spec
from mzbell.coherence import classical_margin

from oracle import (assert_split_matches, brute_expect, density, purity,
                    split_via_beamsplitter)


class TestSplitSinglePhoton:
    def test_exact_norm(self):
        state = split_single_photon()
        assert np.vdot(state.vector, state.vector).real == pytest.approx(
            1.0, abs=1e-15)

    def test_frozen_moments(self):
        m = compute_moments(split_single_photon())
        assert abs(m.m12 - 0.5j) < 1e-14
        assert abs(abs(g1(m)) - 1.0) < 1e-14
        assert abs(g2(m)) < 1e-14

    def test_equals_split_number_one(self):
        via_bs = split_input(number_state(1, 1))
        np.testing.assert_allclose(via_bs.vector,
                                   split_single_photon().vector, atol=1e-14)


class TestSplitInput:
    def test_coherent_becomes_product(self):
        alpha = 0.5
        state = split_input(coherent_state(alpha, 1e-13))
        m = compute_moments(state)
        assert abs(m.n1 - alpha ** 2 / 2) < 1e-11
        assert abs(m.n2 - alpha ** 2 / 2) < 1e-11
        assert abs(m.m12 - 1j * alpha ** 2 / 2) < 1e-11

    def test_thermal_split_coherences(self):
        m = compute_moments(split_input(thermal_state(0.6, 1e-12)))
        assert abs(abs(g1(m)) - 1.0) < 1e-9
        assert abs(g2(m) - 2.0) < 1e-8

    def test_total_photon_number_preserved(self):
        for inp in (coherent_state(0.8, 1e-12), thermal_state(0.5, 1e-12),
                    number_state(2, 2)):
            n_in = expectations(inp, [[(1, 1)]])[0].real
            split = split_input(inp)
            m = compute_moments(split)
            assert abs(m.n1 + m.n2 - n_in) < 1e-10

    def test_single_mode_required(self):
        with pytest.raises(ValueError):
            split_input(split_single_photon())

    @pytest.mark.parametrize("make", [
        lambda: coherent_state(-1.3),
        lambda: coherent_state(0.9j),
        lambda: number_state(3, 10),
        # a negative real amplitude: its product's -0 part is written +0
        lambda: make_pure(ModeSystem((2,)), [0.6, -0.8, 0.0]),
    ], ids=["negative_real_alpha", "imaginary_alpha", "number_3_of_10",
            "negative_real_amplitude"])
    def test_equals_the_beamsplitter_within_two_ulp(self, make):
        state = make()
        assert_split_matches(state, split_input(state))

    def test_split_number_moments_print_exactly(self):
        # with every edge entry correctly rounded, each even n prints
        # n1 = n2 = n/2 and n1n2 = n(n-1)/4 exactly at the CLI's 15
        # significant digits
        for n in range(0, 201, 2):
            m = compute_moments(build_state(StateSpec("split_number",
                                                      {"n": n})))
            assert [cli._fmt(v) for v in (m.n1, m.n2, m.n1n2)] == [
                cli._fmt(v) for v in (n / 2, n / 2, n * (n - 1) / 4)], n

    def test_size_refused_as_the_beamsplitter_refuses(self):
        # rank 130 times dimension 130^2 passes the amplitude bound
        state = thermal_state(4.2)
        for split in (split_input, split_via_beamsplitter):
            with pytest.raises(DimensionLimitError,
                               match="2197000 amplitudes"):
                split(state)

    def test_size_bound_refused_before_allocating(self, monkeypatch):
        # |1448, 0> splits into 1449^2 amplitudes, past the size bound:
        # refused with no edge column and no output stack (32 MiB as a
        # dense stack) formed, as the beamsplitter refuses it; |1447, 0>
        # splits
        state = number_state(1448, 1448)

        def refuse(n):
            raise AssertionError(f"edge column {n} requested")
        with monkeypatch.context() as patch:
            patch.setattr(fock, "_edge_column", refuse)
            tracemalloc.start()
            try:
                with pytest.raises(DimensionLimitError,
                                   match="2099601 amplitudes"):
                    split_input(state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 ** 20
        with pytest.raises(DimensionLimitError, match="2099601 amplitudes"):
            split_via_beamsplitter(state)
        split = split_input(number_state(1447, 1447))
        assert split.support.size == 1448
        assert abs(np.vdot(split.values, split.values).real - 1) < 1e-13


class TestIncoherentAnticorrelated:
    def test_half_half(self):
        m = compute_moments(incoherent_anticorrelated(0.5))
        assert abs(g1(m)) < 1e-14
        assert abs(g2(m)) < 1e-14
        verdict_c1 = local_realism_verdict(m).c1
        assert verdict_c1 < 1e-14

    def test_flat_fringes(self):
        records = fringe_scan(incoherent_anticorrelated(0.5),
                              [2 * math.pi * k / 16 for k in range(16)])
        values = [r.intensity_c for r in records]
        assert max(values) - min(values) < 1e-12

    def test_one_sided_is_degenerate(self):
        m = compute_moments(incoherent_anticorrelated(1.0))
        with pytest.raises(DegenerateStateError):
            g1(m)

    def test_range(self):
        with pytest.raises(ValueError):
            incoherent_anticorrelated(1.2)


class TestNoisySplitPhoton:
    def test_pure_limit(self):
        state = noisy_split_photon(1.0, 0.2)
        m = compute_moments(state)
        ref = compute_moments(split_single_photon())
        assert abs(m.m12 - ref.m12) < 1e-14
        assert abs(purity(state) - 1.0) < 1e-12

    def test_coherent_limit(self):
        state = noisy_split_photon(0.0, 0.3)
        ref = compute_moments(split_input(coherent_state(0.3)))
        m = compute_moments(state)
        assert abs(m.m12 - ref.m12) < 1e-12
        assert abs(m.n1n2 - ref.n1n2) < 1e-12

    def test_emulated_experiment_point(self):
        # w = 0.82, alpha = 1: g2 = (1-w) lam^2/(w + (1-w) lam)^2 = 0.18
        m = compute_moments(noisy_split_photon(0.82, 1.0, tail_eps=1e-13))
        assert abs(abs(g1(m)) - 1.0) < 1e-10
        assert abs(g2(m) - 0.18) < 1e-9
        verdict = local_realism_verdict(m)
        assert verdict.violates_classical and not verdict.violates_bell

    def test_nearby_point_violates(self):
        m = compute_moments(noisy_split_photon(0.84, 1.0, tail_eps=1e-13))
        assert g2(m) < 0.17
        assert local_realism_verdict(m).violates_bell

    def test_weight_range(self):
        with pytest.raises(ValueError):
            noisy_split_photon(-0.1, 0.2)


class TestCatalogInvariants:
    def _all_states(self):
        yield split_single_photon()
        yield split_input(coherent_state(0.7, 1e-12))
        yield split_input(thermal_state(0.4, 1e-10))
        yield incoherent_anticorrelated(0.3)
        yield noisy_split_photon(0.9, 0.25)
        yield mixed_ensemble([(0.4, split_input(coherent_state(0.2))),
                              (0.6, split_input(coherent_state(0.5)))])

    def test_states_are_valid(self):
        for state in self._all_states():
            if state.is_pure:
                assert abs(np.linalg.norm(state.vector) - 1) < 1e-9
            else:
                rho = density(state)
                assert abs(np.trace(rho).real - 1) < 1e-9
                assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
                assert np.linalg.eigvalsh(rho)[0] > -1e-10

    def test_classical_members_respect_classical_bound(self):
        classical = [split_input(coherent_state(0.7, 1e-13)),
                     split_input(thermal_state(0.4, 1e-10)),
                     incoherent_anticorrelated(0.3),
                     mixed_ensemble([(0.4, split_input(coherent_state(0.2, 1e-13))),
                                     (0.6, split_input(coherent_state(0.5, 1e-13)))])]
        for state in classical:
            m = compute_moments(state)
            assert classical_margin(abs(g1(m)), g2(m)) >= -1e-10
            assert not local_realism_verdict(m).violates_bell


class TestStateSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown state family"):
            StateSpec("squeezed_vacuum", {})

    def test_build_every_family(self):
        specs = [
            StateSpec("split_single_photon"),
            StateSpec("split_number", {"n": 2}),
            StateSpec("split_coherent", {"alpha_re": 0.4, "alpha_im": 0.1}),
            StateSpec("split_thermal", {"nbar": 0.3}),
            StateSpec("incoherent_anticorrelated", {"p": 0.4}),
            StateSpec("noisy_split_photon",
                      {"w": 0.9, "alpha_re": 0.2, "alpha_im": 0.0}),
            StateSpec("pure_explicit",
                      {"amplitudes": [[0, 0], [0, 1], [1, 0], [0, 0]]}),
            StateSpec("mixed_ensemble", {"components": [
                {"weight": 0.5, "family": "split_single_photon"},
                {"weight": 0.5, "family": "split_coherent",
                 "alpha_re": 0.2, "alpha_im": 0.0},
            ]}),
        ]
        for spec in specs:
            state = build_state(spec)
            assert state.system.mode_count == 2

    def test_pure_explicit_matches_split_photon(self):
        root = 1 / math.sqrt(2)
        spec = StateSpec("pure_explicit",
                         {"amplitudes": [[0, 0], [0, root], [root, 0], [0, 0]]})
        state = build_state(spec)
        np.testing.assert_allclose(state.vector,
                                   split_single_photon().vector, atol=1e-12)

    def test_pure_explicit_bad_length(self):
        with pytest.raises(ValueError, match="square"):
            build_state(StateSpec("pure_explicit", {"amplitudes": [1, 0, 0]}))

    def test_cutoff_override(self):
        state = build_state(StateSpec("split_number", {"n": 1}), cutoff=3)
        assert state.system.cutoffs == (3, 3)
        m = compute_moments(state)
        assert abs(m.m12 - 0.5j) < 1e-14

    def test_label_deterministic(self):
        spec = StateSpec("noisy_split_photon",
                         {"w": 0.9, "alpha_re": 0.2, "alpha_im": 0.0})
        assert spec_label(spec) == "noisy_split_photon alpha_im=0 alpha_re=0.2 w=0.9"


class TestMixedEnsemble:
    def test_pads_to_common_cutoffs(self):
        small = split_single_photon()
        big = split_input(coherent_state(0.5, 1e-12))
        mix = mixed_ensemble([(0.5, small), (0.5, big)])
        assert mix.system.cutoffs == big.system.cutoffs
        assert abs(np.trace(density(mix)).real - 1) < 1e-12

    def test_moments_are_convex(self):
        a = split_single_photon()
        b = split_input(coherent_state(0.4, 1e-12))
        mix = mixed_ensemble([(0.3, a), (0.7, b)])
        ma, mb, mm = (compute_moments(s) for s in (a, b, mix))
        assert abs(mm.m12 - (0.3 * ma.m12 + 0.7 * mb.m12)) < 1e-12
        assert abs(mm.n1n2 - (0.3 * ma.n1n2 + 0.7 * mb.n1n2)) < 1e-12

    def test_brute_force_moment_check(self):
        mix = noisy_split_photon(0.9, 0.3, tail_eps=1e-12)
        got = compute_moments(mix)
        assert abs(got.m12 - brute_expect(mix, [(1, 0), (0, 1)])) < 1e-13
        assert abs(got.n1n2
                   - brute_expect(mix, [(1, 1), (1, 1)]).real) < 1e-13


class TestSnapshots:
    def test_pure_roundtrip(self):
        state = split_single_photon()
        rebuilt = build_state(state_to_spec(state))
        np.testing.assert_allclose(rebuilt.vector, state.vector, atol=1e-12)

    def test_mixed_roundtrip_via_moments(self):
        state = noisy_split_photon(0.85, 0.3)
        rebuilt = build_state(state_to_spec(state))
        np.testing.assert_allclose(density(rebuilt), density(state),
                                   atol=1e-14)

    def test_snapshot_is_json_ready(self):
        import json
        spec = state_to_spec(noisy_split_photon(0.9, 0.2))
        doc = json.dumps({"family": spec.family, "params": spec.params})
        assert "mixed_ensemble" in doc
