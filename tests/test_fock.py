"""Fock-core tests: constructors, expectations, transforms, invariants."""

import math
import tracemalloc

import numpy as np
import pytest

from mzbell import (DimensionLimitError, ModeSystem, QuantumState, basis_state,
                    coherence, coherent_state, expectations, fock, make_mixed,
                    make_pure, number_state, pad_cutoffs, split_input,
                    thermal_state)

import oracle
from oracle import (apply_beamsplitter, apply_phase, brute_expect,
                    bs_unitary_spectral, density, lowered_expectations,
                    photon_counts_after_phases, plan_sectors, purity,
                    random_density, random_pure, random_state, tensor,
                    vacuum_state)

TWO_MODE = ModeSystem((1, 1))


def split_photon_amplitudes():
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0          # |10>
    amps[1] = 1.0j         # |01>
    return amps / math.sqrt(2)


class TestConstructors:
    def test_vacuum_basis_vector(self):
        state = make_pure(TWO_MODE, [1, 0, 0, 0])
        assert state.vector[0] == 1.0
        assert not state.renormalized

    def test_normalization_forced(self):
        state = make_pure(TWO_MODE, [1, 1, 0, 0])
        assert state.renormalized
        np.testing.assert_allclose(abs(state.vector[0]), 1 / math.sqrt(2),
                                   atol=1e-15)

    def test_split_photon_amplitudes(self):
        state = make_pure(TWO_MODE, split_photon_amplitudes())
        np.testing.assert_allclose(state.vector, split_photon_amplitudes(),
                                   atol=1e-15)
        assert not state.renormalized

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="amplitudes"):
            make_pure(TWO_MODE, [1, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            make_pure(TWO_MODE, [0, 0, 0, 0])

    def test_tiny_vector_is_normalized(self):
        # the plain norm of these underflows to 0 (or loses its digits)
        for tiny in (2.2e-311, 5e-324, 1e-160 - 3e-161j, -4e-200j):
            state = make_pure(ModeSystem((2, 2)), [0, 0, tiny / 2, 0, tiny,
                                                   0, 0, 0, 0])
            want = np.zeros(9, dtype=complex)
            if tiny == 5e-324:      # tiny / 2 rounds to zero
                want[4] = 1.0
            else:
                want[[2, 4]] = tiny / abs(tiny) * np.array([0.5, 1.0])
                want /= np.linalg.norm(want)
            # a subnormal input carries only about 42 of its 53 bits
            np.testing.assert_allclose(state.vector, want, rtol=1e-9)
            assert state.renormalized
        # an ordinary vector keeps the plain quotient, bit for bit
        vec = np.array([0.3, 1e-140j, -0.2 + 0.1j, 0.0])
        assert np.array_equal(make_pure(TWO_MODE, vec).vector,
                              vec / np.linalg.norm(vec))

    def test_make_mixed_single_projector(self):
        one_zero = basis_state(TWO_MODE, (1, 0))
        rho = density(make_mixed([(1.0, one_zero)]))
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_make_mixed_classical_mixture(self):
        mix = make_mixed([(0.5, basis_state(TWO_MODE, (1, 0))),
                          (0.5, basis_state(TWO_MODE, (0, 1)))])
        np.testing.assert_allclose(np.diag(density(mix)).real,
                                   [0, 0.5, 0.5, 0], atol=1e-15)

    def test_make_mixed_purity(self):
        # orthogonal half/half mixture: Tr rho^2 = 0.25 + 0.25
        split = make_pure(TWO_MODE, split_photon_amplitudes())
        mix = make_mixed([(0.5, split), (0.5, vacuum_state(TWO_MODE))])
        direct = np.trace(density(mix) @ density(mix)).real
        assert abs(direct - 0.5) < 1e-14
        assert abs(purity(mix) - direct) < 1e-14

    def test_make_mixed_errors(self):
        s = vacuum_state(TWO_MODE)
        with pytest.raises(ValueError, match="negative"):
            make_mixed([(-0.1, s), (1.1, s)])
        with pytest.raises(ValueError, match="sum"):
            make_mixed([(0.6, s), (0.6, s)])
        with pytest.raises(ValueError, match="ModeSystem"):
            make_mixed([(0.5, s), (0.5, vacuum_state(ModeSystem((2, 2))))])

    def test_state_validation(self):
        with pytest.raises(ValueError, match="norm"):
            QuantumState(TWO_MODE, vector=np.array([1, 1, 0, 0], dtype=complex))


class TestTensor:
    def test_vacuum_product(self):
        out = tensor(vacuum_state(ModeSystem((1,))), vacuum_state(ModeSystem((2,))))
        assert out.system.cutoffs == (1, 2)
        assert out.vector[0] == 1.0

    def test_basis_product(self):
        out = tensor(number_state(1, 1), number_state(0, 1))
        np.testing.assert_allclose(out.vector,
                                   basis_state(TWO_MODE, (1, 0)).vector)

    def test_split_photon_with_oscillators(self):
        split = make_pure(TWO_MODE, split_photon_amplitudes())
        lo = coherent_state(0.2 * np.exp(0.3j), 1e-12)
        four = tensor(tensor(split, lo), lo)
        assert four.system.mode_count == 4
        norm = np.linalg.norm(four.vector)
        assert abs(norm - 1.0) < 1e-10

    def test_dimension_limit(self):
        # rank 40 x 40 times rank 40 x 40: 1600 x 1600 amplitudes > 2^21
        big = thermal_state(1.0, 1e-12)
        with pytest.raises(DimensionLimitError, match="2560000 amplitudes"):
            tensor(big, big)


class TestSingleModeStates:
    def test_coherent_vacuum(self):
        state = coherent_state(0.0)
        assert state.system.cutoffs == (0,)
        assert state.vector[0] == 1.0

    def test_coherent_mean_photon_number(self):
        state = coherent_state(1.0, 1e-12)
        n = expectations(state, [[(1, 1)]])[0].real
        assert abs(n - 1.0) < 1e-10

    def test_coherent_eigenvalue_property(self):
        alpha = 0.5 * np.exp(1j * np.pi / 4)
        state = coherent_state(alpha, 1e-12)
        assert abs(expectations(state, [[(0, 1)]])[0] - alpha) < 1e-10
        # <(a^dag)^p a^q> = conj(alpha)^p alpha^q
        for p, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            want = np.conj(alpha) ** p * alpha ** q
            got = expectations(state, [[(p, q)]])[0]
            assert abs(got - want) < 1e-10

    def test_coherent_cutoff_limit(self):
        with pytest.raises(DimensionLimitError):
            coherent_state(40.0, 1e-12, max_cutoff=64)

    def test_number_state(self):
        state = number_state(1, 1)
        assert expectations(state, [[(1, 1)]])[0].real == 1.0
        with pytest.raises(ValueError):
            number_state(2, 1)

    def test_thermal_vacuum(self):
        state = thermal_state(0.0)
        assert state.is_pure
        assert density(state)[0, 0] == 1.0

    def test_thermal_mean_photon_number(self):
        state = thermal_state(1.0, 1e-12)
        n = expectations(state, [[(1, 1)]])[0].real
        assert abs(n - 1.0) < 1e-9
        diag = np.diag(density(state)).real
        assert abs(diag.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_refused(self, value):
        # a plain ValueError naming the parameter, before any cutoff loop
        with pytest.raises(ValueError, match="^nbar must be finite") as info:
            thermal_state(value)
        assert type(info.value) is ValueError
        for alpha in (complex(value, 0.0), complex(0.5, value)):
            with pytest.raises(ValueError,
                               match="^alpha must be finite") as info:
                coherent_state(alpha)
            assert type(info.value) is ValueError


class TestExpectations:
    def test_annihilation_kills_vacuum(self):
        vac = vacuum_state(ModeSystem((2, 2)))
        for powers in ([(0, 1), (0, 0)], [(1, 2), (0, 0)], [(0, 0), (0, 3)]):
            assert expectations(vac, [powers])[0] == 0

    def test_number_operator(self):
        for n in range(4):
            state = number_state(n, 3)
            assert abs(expectations(state, [[(1, 1)]])[0] - n) < 1e-14

    def test_split_photon_cross_moment(self):
        # hand ladder algebra: <a1^dag a2> = i/2 for (|10> + i|01>)/sqrt(2)
        state = make_pure(TWO_MODE, split_photon_amplitudes())
        got = expectations(state, [[(1, 0), (0, 1)]])[0]
        assert abs(got - 0.5j) < 1e-15
        assert abs(got - brute_expect(state, [(1, 0), (0, 1)])) < 1e-15

    @pytest.mark.parametrize("seed", range(6))
    def test_random_states_match_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        cutoffs = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
        state = random_state(rng, cutoffs)
        for _ in range(5):
            powers = [(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                      for _ in cutoffs]
            got = expectations(state, [powers])[0]
            want = brute_expect(state, powers)
            assert abs(got - want) < 1e-12

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(6)
        left = random_pure(rng, (3,))
        right = random_pure(rng, (2,))
        joint = tensor(left, right)
        for pa, pb in [((1, 1), (1, 0)), ((2, 1), (1, 1)), ((0, 1), (0, 2))]:
            want = expectations(left, [[pa]])[0] \
                * expectations(right, [[pb]])[0]
            got = expectations(joint, [[pa, pb]])[0]
            assert abs(got - want) < 1e-12

    def test_bad_powers(self):
        vac = vacuum_state(TWO_MODE)
        with pytest.raises(ValueError):
            expectations(vac, [[(1, 1)]])
        with pytest.raises(ValueError):
            expectations(vac, [[(1, -1), (0, 0)]])


class TestBatchedExpectations:
    @staticmethod
    def stack_state(rng, cutoffs, rank):
        system = ModeSystem(cutoffs)
        amps = (rng.normal(size=(rank, system.dim))
                + 1j * rng.normal(size=(rank, system.dim)))
        return QuantumState(system, amps=amps / np.linalg.norm(amps))

    # (cutoffs, rank): 84050 or 75000 amplitudes, three chunks each
    @pytest.mark.parametrize("cutoffs, rank", [((40, 40), 50),
                                               ((4, 4, 4, 4), 120)])
    def test_batch_equals_single_terms_bit_for_bit(self, cutoffs, rank):
        rng = np.random.default_rng(rank)
        state = self.stack_state(rng, cutoffs, rank)
        assert state.amps.size > 2 * fock.CHUNK
        terms = [[(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                  for _ in cutoffs] for _ in range(6)]
        terms += [terms[0], [(0, 0)] * len(cutoffs),
                  [(cutoffs[0] + 1, 0)] + [(1, 1)] * (len(cutoffs) - 1)]
        got = expectations(state, terms)
        assert got == [expectations(state, [t])[0] for t in terms]
        # the whole-row lowering the package used before, to rounding
        for value, want in zip(got, lowered_expectations(state, terms)):
            assert abs(value - want) <= 1e-13 * max(1.0, abs(want))
        assert expectations(state, []) == []

    def test_values_bit_identical_under_any_order_of_terms(self):
        rng = np.random.default_rng(18)
        for cutoffs, rank in [((40, 40), 50), ((4, 4, 4, 4), 120),
                              ((1, 2), 2)]:
            state = self.stack_state(rng, cutoffs, rank)
            terms = [[(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                      for _ in cutoffs] for _ in range(6)]
            terms += [[(0, 0)] * len(cutoffs),
                      [(cutoffs[0] + 1, 0)] + [(1, 1)] * (len(cutoffs) - 1)]
            want = np.array(expectations(state, terms))
            for _ in range(4):
                # a permutation of the terms, then some of them again
                pick = np.concatenate([rng.permutation(len(terms)),
                                       rng.integers(0, len(terms), 3)])
                got = np.array(expectations(state, [terms[i] for i in pick]))
                assert np.array_equal(got.view(np.uint64),
                                      want[pick].view(np.uint64))

    @pytest.mark.parametrize("case, bound", [("dense", 4 << 20),
                                             ("split thermal", 1 << 19)])
    def test_moments_peak_memory(self, case, bound):
        # a dense rank-1 state of 1448^2 = 2096704 amplitudes (32 MiB),
        # and a split thermal state of rank 83 and dim 6889, 0.5 % nonzero:
        # the five moments read them chunk by chunk, with no lowered row
        if case == "dense":
            dim = 1448 ** 2
            state = QuantumState(ModeSystem((1447, 1447)),
                                 vector=np.full(dim, dim ** -0.5))
        else:
            state = split_input(thermal_state(2.5))
        coherence.compute_moments(state)    # the ladder tables are cached
        tracemalloc.start()
        try:
            coherence.compute_moments(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestPhase:
    def test_identity(self):
        state = make_pure(TWO_MODE, split_photon_amplitudes())
        out = apply_phase(state, 0, 0.0)
        np.testing.assert_allclose(out.vector, state.vector, atol=0)

    def test_sign_flip(self):
        state = number_state(1, 1)
        out = apply_phase(state, 0, np.pi)
        assert abs(out.vector[1] + 1.0) < 1e-15

    def test_coherent_rotation(self):
        alpha, phi = 0.6, 1.3
        rotated = apply_phase(coherent_state(alpha, 1e-12), 0, phi)
        cutoff = rotated.system.cutoffs[0]
        want = coherent_state(alpha * np.exp(1j * phi), 1e-12)
        np.testing.assert_allclose(rotated.vector,
                                   want.vector[:cutoff + 1], atol=1e-12)


class TestBeamsplitter:
    def test_single_photon_split(self):
        state = basis_state(TWO_MODE, (1, 0))
        out = apply_beamsplitter(state, 0, 1)
        np.testing.assert_allclose(out.vector, split_photon_amplitudes(),
                                   atol=1e-14)

    def test_vacuum_untouched(self):
        out = apply_beamsplitter(vacuum_state(TWO_MODE), 0, 1)
        assert abs(out.vector[0] - 1.0) < 1e-14
        assert out.system == TWO_MODE

    def test_coherent_split_closed_form(self):
        alpha = 0.4
        inp = tensor(coherent_state(alpha, 1e-14),
                     vacuum_state(ModeSystem((coherent_state(alpha, 1e-14)
                                              .system.cutoffs[0],))))
        out = apply_beamsplitter(inp, 0, 1)
        cut = inp.system.cutoffs[0]
        n = np.arange(cut + 1)
        log_fact = np.cumsum(np.log(np.maximum(n, 1)))

        def coh_amps(a):
            return np.exp(-abs(a) ** 2 / 2) * a ** n / np.exp(log_fact / 2)

        want = np.kron(coh_amps(alpha / math.sqrt(2)),
                       coh_amps(1j * alpha / math.sqrt(2))).reshape(
                           cut + 1, cut + 1)
        # components with total photon number above the input cutoff are
        # unreachable from the truncated input (their closed-form weight is
        # tail-level); compare on the exactly transformed support
        k, l = np.meshgrid(n, n, indexing="ij")
        want[k + l > cut] = 0.0
        np.testing.assert_allclose(out.vector, want.reshape(-1), atol=1e-10)

    def test_unitarity_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            state = random_state(rng, (2, 3, 2))
            # the forward transform pads the pair; the inverse needs no more
            there = apply_beamsplitter(state, 0, 2)
            back = apply_beamsplitter(there, 0, 2, inverse=True)
            padded = pad_cutoffs(state, there.system.cutoffs)
            assert back.system == there.system
            if padded.is_pure:
                np.testing.assert_allclose(back.vector, padded.vector,
                                           atol=1e-10)
            else:
                np.testing.assert_allclose(density(back), density(padded),
                                           atol=1e-10)

    def test_photon_number_conserved(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            state = random_state(rng, (2, 2))
            out = apply_beamsplitter(state, 0, 1)
            n_in = expectations(state, [[(1, 1), (0, 0)]])[0].real \
                + expectations(state, [[(0, 0), (1, 1)]])[0].real
            n_out = expectations(out, [[(1, 1), (0, 0)]])[0].real \
                + expectations(out, [[(0, 0), (1, 1)]])[0].real
            assert abs(n_in - n_out) < 1e-10

    def test_sector_above_cutoffs_is_padded(self):
        # |11> maps entirely onto |20> and |02>, above cutoff 1: the
        # transform grows both cutoffs to 2 and keeps the norm
        state = basis_state(TWO_MODE, (1, 1))
        out = apply_beamsplitter(state, 0, 1)
        assert out.system.cutoffs == (2, 2)
        assert abs(np.vdot(out.vector, out.vector).real - 1.0) < 1e-14
        want = (bs_unitary_spectral(out.system.dims, 0, 1)
                @ pad_cutoffs(state, out.system.cutoffs).vector)
        np.testing.assert_allclose(out.vector, want, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (5, 3)])
    def test_matches_spectral_oracle_on_complete_blocks(self, dims):
        # spectral exp(i theta K) equals the block construction wherever the
        # photon-number block fits under both cutoffs
        u_oracle = bs_unitary_spectral(dims, 0, 1)
        n_max = min(dims) - 1
        rng = np.random.default_rng(13)
        system = ModeSystem(tuple(d - 1 for d in dims))
        for _ in range(4):
            amps = np.zeros(dims, dtype=complex)
            for m in range(n_max + 1):
                for n in range(n_max + 1 - m):
                    amps[m, n] = rng.normal() + 1j * rng.normal()
            flat = amps.reshape(-1)
            flat /= np.linalg.norm(flat)
            state = QuantumState(system, vector=flat)
            ours = apply_beamsplitter(state, 0, 1).vector
            theirs = u_oracle @ flat
            np.testing.assert_allclose(ours, theirs, atol=1e-12)
            inv = apply_beamsplitter(state, 0, 1, inverse=True).vector
            theirs_inv = bs_unitary_spectral(dims, 0, 1, inverse=True) @ flat
            np.testing.assert_allclose(inv, theirs_inv, atol=1e-12)

    def test_mixed_matches_pure_conjugation(self):
        rng = np.random.default_rng(14)
        state = random_density(rng, (2, 2), rank=2)
        out = apply_beamsplitter(state, 0, 1)
        padded = pad_cutoffs(state, out.system.cutoffs)
        u = bs_unitary_spectral(padded.system.dims, 0, 1)
        # all occupied blocks fit after padding, so the oracle applies
        want = u @ density(padded) @ u.conj().T
        np.testing.assert_allclose(density(out), want, atol=1e-12)

    @pytest.mark.parametrize("mixed,cutoffs,modes,inverse", [
        (False, (2, 3), (0, 1), False),
        (True, (3, 1), (0, 1), True),
        (False, (2, 1, 3), (0, 2), True),
        (True, (2, 1, 3), (2, 0), False),
        (False, (1, 2, 1, 2), (3, 0), False),
        (True, (1, 2, 1, 2), (1, 3), True),
    ])
    def test_truncation_matches_padded_oracle(self, mixed, cutoffs, modes,
                                              inverse):
        # the transform pads the truncated state until every block fits;
        # the spectral oracle on that padded state is the exact map
        rng = np.random.default_rng(17)
        state = (random_density(rng, cutoffs, rank=3) if mixed
                 else random_pure(rng, cutoffs))
        out = apply_beamsplitter(state, *modes, inverse=inverse)
        padded = pad_cutoffs(state, out.system.cutoffs)
        u = bs_unitary_spectral(padded.system.dims, *modes, inverse=inverse)
        if mixed:
            want = u @ density(padded) @ u.conj().T
            np.testing.assert_allclose(density(out), want, atol=1e-12)
        else:
            want = u @ padded.vector
            np.testing.assert_allclose(out.vector, want, atol=1e-12)
        # the original cutoffs would have cut some blocks; none is lost
        keep = tuple(slice(0, c + 1) for c in cutoffs)
        probs = np.sum(np.abs(out.tensorized()) ** 2, axis=0)
        assert 1.0 - probs[keep].sum() > 1e-3
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_empty_sectors_build_no_block(self, monkeypatch):
        # one recursion per plan, up to the top occupied sector, not to the
        # cutoffs' 300; only the occupied sectors' blocks are kept
        import mzbell.fock as fock
        requested = []
        build = fock._bs_blocks

        def recording(top):
            requested.append(top)
            return build(top)
        monkeypatch.setattr(fock, "_bs_blocks", recording)
        state = basis_state(ModeSystem((150, 150)), (3, 0))
        _, plan = plan_sectors(state, 0, 1)
        assert requested == [3]
        assert [len(block) for _, _, block in plan] == [4]
        out = apply_beamsplitter(state, 0, 1)
        assert requested == [3, 3]
        amps = out.tensorized()[0, :4, :4]
        assert abs(abs(amps[0, 3]) ** 2 - 1 / 8) < 1e-14
        system = ModeSystem((20, 20))
        mixed = make_mixed([(0.5, basis_state(system, (3, 0))),
                            (0.5, basis_state(system, (1, 2)))])
        out = apply_beamsplitter(mixed, 0, 1)
        assert requested == [3, 3, 3]
        assert abs(purity(out) - 0.5) < 1e-12

    def test_support_scanned_once(self, monkeypatch):
        # the plan's own scan decides the padding, and a padded state is
        # not planned again
        plans = []

        def counting(state, *args):
            plans.append(state.system.cutoffs)
            return plan_sectors(state, *args)
        monkeypatch.setattr(oracle, "plan_sectors", counting)
        coherent = coherent_state(0.8)
        apply_beamsplitter(tensor(coherent, vacuum_state(coherent.system)),
                           0, 1)
        assert plans == [coherent.system.cutoffs * 2]
        plans.clear()
        apply_beamsplitter(basis_state(TWO_MODE, (1, 1)), 0, 1)
        assert plans == [(1, 1)]

    def test_split_input_makes_no_plan(self, monkeypatch):
        # the split writes each input amplitude from the closed-form edge
        # column of its level: no sector plan (the package has none) and
        # no block, and only the columns of the occupied levels
        assert not hasattr(fock, "_plan")
        requested = []
        column = fock._edge_column

        def recording(n):
            requested.append(n)
            return column(n)

        def refuse(top):
            raise AssertionError(f"blocks up to U_{top} requested")
        monkeypatch.setattr(fock, "_edge_column", recording)
        monkeypatch.setattr(fock, "_bs_blocks", refuse)
        for state, levels in [(coherent_state(0.8), range(13)),
                              (thermal_state(0.5), range(26)),
                              (number_state(4, 6), [4])]:
            requested.clear()
            split_input(state)
            assert requested == list(levels)

    @pytest.mark.parametrize("mixed,cutoffs,modes,forward", [
        (False, (1, 1), (0, 1), True),
        (True, (3, 1), (0, 1), False),
        (False, (2, 1, 3), (0, 2), False),
        (True, (2, 1, 3), (2, 0), True),
        (False, (1, 2, 1, 2), (3, 0), True),
        (True, (1, 2, 1, 2), (1, 3), False),
    ])
    def test_padding_plan_matches_the_padded_state(self, mixed, cutoffs,
                                                   modes, forward):
        # the plan maps the unpadded scan into the padded layout: the same
        # rows, components and blocks as planning the padded state itself,
        # so the transform either way is the same bit for bit
        rng = np.random.default_rng(19)
        state = (random_density(rng, cutoffs, rank=3) if mixed
                 else random_pure(rng, cutoffs))
        ours, plan = plan_sectors(state, *modes)
        assert ours.system != state.system
        padded = pad_cutoffs(state, ours.system.cutoffs)
        same, want = plan_sectors(padded, *modes)
        assert same is padded
        np.testing.assert_array_equal(ours.amps, padded.amps)
        assert len(plan) == len(want) > 0
        for (rows, cols, block), (rows_p, cols_p, block_p) in zip(plan, want):
            np.testing.assert_array_equal(rows, rows_p)
            np.testing.assert_array_equal(cols, cols_p)
            assert np.array_equal(block.view(np.uint64),
                                  block_p.view(np.uint64))
        np.testing.assert_array_equal(
            apply_beamsplitter(state, *modes, inverse=not forward).amps,
            apply_beamsplitter(padded, *modes, inverse=not forward).amps)

    def test_block_bound_checked_before_building(self, monkeypatch):
        # the plan's own bound: U_0..U_463 hold 33406840 entries,
        # U_0..U_464 33623065 > 2^25
        oracle.check_blocks(463)
        with pytest.raises(DimensionLimitError, match="33623065 entries"):
            oracle.check_blocks(464)
        # every sector 0..470 is occupied: the bound on the top one is hit
        # before the recursion builds any block

        def refuse(top):
            raise AssertionError(f"blocks up to U_{top} requested")
        monkeypatch.setattr(fock, "_bs_blocks", refuse)
        state = QuantumState(ModeSystem((470, 0)),
                             vector=np.full(471, 1 / math.sqrt(471)))
        with pytest.raises(DimensionLimitError, match="up to 470 photons"):
            apply_beamsplitter(state, 0, 1)

    def test_block_bound_refused_before_padding(self):
        # |1000, 0> pads to 1001^2 amplitudes (15.3 MiB, under the size
        # bound), but its blocks U_0..U_1000 would hold 334835501 entries:
        # refused before the padded state or its row grid exist
        state = QuantumState(ModeSystem((1000, 0)),
                             vector=np.eye(1, 1001, 1000)[0])
        tracemalloc.start()
        try:
            with pytest.raises(DimensionLimitError,
                               match="334835501 entries"):
                apply_beamsplitter(state, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_padded_size_refused_before_block_bound(self):
        # |1500, 0> would pass both bounds; the padded size is named first
        state = QuantumState(ModeSystem((1500, 0)),
                             vector=np.eye(1, 1501, 1500)[0])
        with pytest.raises(DimensionLimitError, match="2253001 amplitudes"):
            apply_beamsplitter(state, 0, 1)

    def test_phase_scan_refused_at_plan_time(self, monkeypatch):
        # the scan plans its sectors when called: the 470-photon sector is
        # refused before any block is built or the count grid over the
        # padded basis (2 x 471^2 floats, 3.4 MiB) is allocated

        def refuse(top):
            raise AssertionError(f"blocks up to U_{top} requested")
        monkeypatch.setattr(fock, "_bs_blocks", refuse)
        state = QuantumState(ModeSystem((470, 0)),
                             vector=np.full(471, 1 / math.sqrt(471)))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionLimitError,
                               match="up to 470 photons"):
                photon_counts_after_phases(state, 0, 1, [0.0, 1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_invalid_modes(self):
        state = vacuum_state(TWO_MODE)
        with pytest.raises(ValueError):
            apply_beamsplitter(state, 0, 0)
        with pytest.raises(ValueError):
            apply_beamsplitter(state, 0, 5)
        with pytest.raises(ValueError):
            photon_counts_after_phases(state, 0, 0, [0.0])


class TestSupportAndPadding:
    def test_pad_roundtrip(self):
        state = make_pure(TWO_MODE, split_photon_amplitudes())
        padded = pad_cutoffs(state, (3, 2))
        assert padded.system.cutoffs == (3, 2)
        assert abs(np.linalg.norm(padded.vector) - 1) < 1e-14
        with pytest.raises(ValueError):
            pad_cutoffs(padded, (1, 1))

    def test_pad_refused_before_allocating(self):
        # rank 40 x dim 52429 = 2097160 amplitudes, 8 above 2^21
        state = thermal_state(1.0, 1e-12)
        assert len(state.amps) == 40
        assert pad_cutoffs(state, (52427,)).amps.shape == (40, 52428)
        with pytest.raises(DimensionLimitError, match="2097160 amplitudes"):
            pad_cutoffs(state, (52428,))

    def test_max_joint_occupation(self):
        # the beamsplitter grows each cutoff of its pair to the largest
        # occupied n_i + n_j, and leaves a larger cutoff as it is
        def cutoffs_after(state, mode_i=0, mode_j=1):
            return apply_beamsplitter(state, mode_i, mode_j).system.cutoffs

        state = basis_state(ModeSystem((2, 2)), (2, 1))
        assert cutoffs_after(state) == (3, 3)
        mixed = make_mixed([(0.5, state),
                            (0.5, basis_state(ModeSystem((2, 2)), (0, 1)))])
        assert cutoffs_after(mixed) == (3, 3)
        assert cutoffs_after(basis_state(ModeSystem((5, 1)), (2, 1))) == (5, 3)
        assert cutoffs_after(vacuum_state(TWO_MODE)) == (1, 1)

    def test_support_scan_sees_tiny_amplitudes(self):
        # |1e-170|^2 underflows to 0, but the amplitude is support all the
        # same: the beamsplitter plan tests != 0 and pads for it
        vec = np.zeros(9, dtype=complex)
        vec[0], vec[8] = 1.0, 1e-170        # |0, 0> and |2, 2>
        state = QuantumState(ModeSystem((2, 2)), vector=vec)
        assert apply_beamsplitter(state, 0, 1).system.cutoffs == (4, 4)
        three = tensor(state, vacuum_state(ModeSystem((0,))))
        assert apply_beamsplitter(three, 0, 1).system.cutoffs == (4, 4, 0)
        assert apply_beamsplitter(three, 1, 2).system.cutoffs == (2, 2, 2)
