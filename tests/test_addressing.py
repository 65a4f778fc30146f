import cmath
import hashlib
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from echoqram.params import ParameterError, solve_matched_params
from echoqram.addressing import (AddressSpec, BranchEfficiencies,
                                 CONTROL_RESET_PHASE, ControlState,
                                 ECHO_EMISSION_PHASE, ProtocolError,
                                 QramState, RAMAN_ABSORB_PHASE, Term,
                                 absorb_address_bin, compose_with_dynamics,
                                 rephase_cell, reset_control, run_addressing,
                                 state_to_dict, store_sequence)
from echoqram.addressing import _FEW_ROWS, _times
from echoqram.cli import main


def addr(*amps):
    return AddressSpec(amplitudes=amps)


def uniform_addr(m):
    return addr(*([1.0 / math.sqrt(m)] * m))


class TestConstants:
    def test_each_minus_one(self):
        # the three pi phases of the protocol, named separately because
        # they come from different physical events
        assert RAMAN_ABSORB_PHASE == -1.0
        assert ECHO_EMISSION_PHASE == -1.0
        assert CONTROL_RESET_PHASE == -1.0


class TestSpecs:
    def test_address_validation(self):
        with pytest.raises(ParameterError):
            AddressSpec(amplitudes=())
        with pytest.raises(ParameterError):
            addr(1.0, 1.0)  # norm 2
        assert addr(0.6, 0.8j).m == 2

    @pytest.mark.parametrize("amps", [
        (complex(math.nan, 0.0),),
        (0.6, complex(0.8, math.nan)),
        (math.inf,),
        (1.3407807929942597e+154,),   # |a| ** 2 overflows
    ])
    def test_address_rejects_non_finite_norm(self, amps):
        with pytest.raises(ParameterError):
            addr(*amps)

    def test_efficiency_validation(self):
        with pytest.raises(ParameterError):
            BranchEfficiencies(transfer_amplitude=1.2)
        with pytest.raises(ParameterError):
            BranchEfficiencies(blockade_reflection_amplitude=0.9,
                               leakage_amplitude=0.6)
        e = BranchEfficiencies()
        assert (e.transfer_amplitude, e.blockade_reflection_amplitude,
                e.leakage_amplitude) == (1.0, -1.0, 0.0)

    @pytest.mark.parametrize("amplitudes", [
        dict(transfer_amplitude=complex(math.nan, 0.0),
             leakage_amplitude=math.nan),
        dict(transfer_amplitude=complex(0.0, math.nan)),
        dict(blockade_reflection_amplitude=math.nan),
        dict(leakage_amplitude=complex(math.nan, math.nan)),
    ])
    def test_efficiency_refuses_nan(self, amplitudes):
        with pytest.raises(ParameterError):
            BranchEfficiencies(**amplitudes)

    def test_store_sequence(self):
        s = store_sequence(3)
        assert s.m == 3
        assert len(s.terms) == 1
        assert s.terms[0].amplitude == 1.0
        assert s.terms[0].control is ControlState.G
        assert state_to_dict(s)["cells"][1]["payload_label"] == "psi_in[2]"
        assert s.norm == 1.0

    def test_store_sequence_validation(self):
        with pytest.raises(ParameterError):
            store_sequence(0)


class TestSingleCell:
    def test_ideal_round(self):
        # M = 1: absorb flips the sign, emission flips it back, reset
        # flips it again: net amplitude -1 with both photons out
        s = store_sequence(1)
        s = absorb_address_bin(s, 1, addr(1.0))
        assert len(s.terms) == 1
        t = s.terms[0]
        assert t.control is ControlState.AU
        assert t.amplitude == -1.0
        assert t.absorbed_bin == 1

        s = rephase_cell(s, 1)
        t = s.terms[0]
        assert t.amplitude == 1.0
        assert t.cells == (0.0,)
        assert t.emitted == frozenset({"psi_in[1]"})

        s = reset_control(s, 1)
        t = s.terms[0]
        assert t.control is ControlState.G
        assert t.amplitude == -1.0
        assert t.emitted == frozenset({"psi_in[1]", "psi_a[1]"})
        assert s.norm == pytest.approx(1.0, abs=1e-12)
        assert s.loss_total == 0.0

    def test_lossy_transfer_ledger(self):
        # |t|^2 = 0.96 leaves 4% of the branch weight in the transfer
        # loss channel and scales the emitted branch accordingly
        eff = BranchEfficiencies(transfer_amplitude=math.sqrt(0.96))
        s = run_addressing(1, addr(1.0), eff)
        assert s.norm == pytest.approx(0.96, rel=1e-12)
        assert s.loss_ledger()["transfer"] == pytest.approx(0.04, rel=1e-12)
        assert s.terms[0].amplitude == pytest.approx(-math.sqrt(0.96))


class TestTwoCells:
    def test_equal_superposition(self):
        s = run_addressing(2, uniform_addr(2))
        assert len(s.terms) == 2
        r = 1.0 / math.sqrt(2.0)
        by_bin = {next(iter(t.emitted & {"psi_a[1]", "psi_a[2]"})): t
                  for t in s.terms}
        t1 = by_bin["psi_a[1]"]
        assert t1.amplitude == pytest.approx(-r, rel=1e-12)
        assert t1.cells[0] == 0.0
        assert t1.cells[1] == pytest.approx(-1.0)  # one bystander bounce
        assert t1.emitted == frozenset({"psi_in[1]", "psi_a[1]"})
        t2 = by_bin["psi_a[2]"]
        assert t2.amplitude == pytest.approx(-r, rel=1e-12)
        assert t2.cells[0] == pytest.approx(-1.0)
        assert t2.cells[1] == 0.0
        assert t2.emitted == frozenset({"psi_in[2]", "psi_a[2]"})
        assert s.norm == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_branch_disappears(self):
        s = run_addressing(2, addr(1.0, 0.0))
        assert len(s.terms) == 1
        t = s.terms[0]
        assert t.amplitude == pytest.approx(-1.0)
        assert t.emitted == frozenset({"psi_in[1]", "psi_a[1]"})
        # cell 2 sat through its own rephasing as a bystander
        assert t.cells == (0.0, -1.0)

    def test_blockade_losses(self):
        # eff from C = 30: bystander branches bounce with -60/61 and
        # leak (1/61)^2 of their weight per rephasing they sit through
        eff = BranchEfficiencies(blockade_reflection_amplitude=-60.0 / 61.0,
                                 leakage_amplitude=1.0 / 61.0)
        s = run_addressing(2, uniform_addr(2), eff)
        assert s.norm == pytest.approx((60.0 / 61.0) ** 2, rel=1e-12)
        ledger = s.loss_ledger()
        assert ledger["blockade_leak"] == pytest.approx(
            (1.0 / 61.0) ** 2, rel=1e-12)
        assert ledger["blockade_scatter"] == pytest.approx(
            120.0 / 3721.0, rel=1e-12)
        assert s.norm + s.loss_total == pytest.approx(1.0, abs=1e-12)


class TestProtocolErrors:
    def test_bin_out_of_range(self):
        s = store_sequence(2)
        with pytest.raises(ParameterError):
            absorb_address_bin(s, 3, uniform_addr(2))

    def test_address_size_mismatch(self):
        s = store_sequence(2)
        with pytest.raises(ParameterError):
            absorb_address_bin(s, 1, addr(1.0))

    def test_consumed_bin(self):
        s = absorb_address_bin(store_sequence(1), 1, addr(1.0))
        s = rephase_cell(s, 1)
        s = reset_control(s, 1)
        with pytest.raises(ProtocolError):
            absorb_address_bin(s, 1, addr(1.0))

    def test_absorb_while_control_excited(self):
        s = absorb_address_bin(store_sequence(2), 1, uniform_addr(2))
        with pytest.raises(ProtocolError):
            absorb_address_bin(s, 2, uniform_addr(2))

    def test_rephase_before_absorb(self):
        with pytest.raises(ProtocolError):
            rephase_cell(store_sequence(1), 1)

    def test_rephase_twice(self):
        s = absorb_address_bin(store_sequence(1), 1, addr(1.0))
        s = rephase_cell(s, 1)
        with pytest.raises(ProtocolError):
            rephase_cell(s, 1)

    def test_rephase_empty_cell(self):
        term = Term(amplitude=1.0 + 0.0j, control=ControlState.G,
                    cells=(0.0 + 0.0j,))
        s = QramState(1, (term,), consumed_bins=frozenset({1}))
        with pytest.raises(ProtocolError):
            rephase_cell(s, 1)

    def test_term_with_wrong_cell_count(self):
        term = Term(amplitude=1.0 + 0.0j, control=ControlState.G,
                    cells=(1.0 + 0.0j,))
        with pytest.raises(ParameterError):
            QramState(2, (term,))

    def test_rephase_wrong_pairing(self):
        term = Term(amplitude=1.0 + 0.0j, control=ControlState.AU,
                    cells=(1.0 + 0.0j, 1.0 + 0.0j), absorbed_bin=1)
        s = QramState(2, (term,), consumed_bins=frozenset({1, 2}))
        with pytest.raises(ProtocolError):
            rephase_cell(s, 2)

    def test_reset_wrong_bin(self):
        s = absorb_address_bin(store_sequence(2), 1, uniform_addr(2))
        with pytest.raises(ProtocolError):
            reset_control(s, 2)

    def test_reset_noop_without_excitation(self):
        s = store_sequence(1)
        assert reset_control(s, 1) is s


class TestInterference:
    """Branches that become identical are merged on every step."""

    def au_pair(self, a1, a2):
        # two branches that differ only in the bounce phase of cell 1
        terms = tuple(Term(amplitude=a, control=ControlState.AU,
                           cells=(phase, 1.0 + 0.0j), absorbed_bin=1)
                      for a, phase in ((a1, 1.0 + 0.0j), (a2, -1.0 + 0.0j)))
        return QramState(2, terms, consumed_bins=frozenset({1}))

    def test_emptied_cell_merges_branches(self):
        t_amp = 0.9
        r = 1.0 / math.sqrt(2.0)
        s = rephase_cell(self.au_pair(r, 1j * r), 1,
                         BranchEfficiencies(transfer_amplitude=t_amp))
        assert len(s.terms) == 1
        t = s.terms[0]
        assert t.amplitude == pytest.approx(-(1 + 1j) * r * t_amp, abs=1e-15)
        assert t.cells == (0.0, 1.0)
        assert t.emitted == frozenset({"psi_in[1]"})
        assert s.loss_ledger()["transfer"] == pytest.approx(1 - t_amp ** 2)
        assert s.norm + s.loss_total == pytest.approx(1.0, abs=1e-12)

    def test_cancelling_branches_break_conservation(self):
        a = complex(0.6, 0.1)
        with pytest.raises(ProtocolError):
            rephase_cell(self.au_pair(a, -a), 1)


class TestFullProtocol:
    def test_random_address_term_by_term(self):
        # independent fold of the protocol algebra: branch k carries
        # (-1)^3 * alpha_k, one bounce phase on every bystander cell
        amps = [0.5, 0.5j, -0.3, -0.1j, None]
        rest = math.sqrt(1.0 - sum(abs(a) ** 2 for a in amps if a is not None))
        amps[-1] = rest
        a = addr(*amps)
        s = run_addressing(5, a)
        assert len(s.terms) == 5
        assert s.norm == pytest.approx(1.0, abs=1e-12)
        for t in s.terms:
            k = next(i for i, c in enumerate(t.cells, start=1) if c == 0)
            assert t.amplitude == pytest.approx(-amps[k - 1], abs=1e-14)
            assert t.emitted == frozenset({f"psi_in[{k}]", f"psi_a[{k}]"})
            assert t.control is ControlState.G
            for i, c in enumerate(t.cells, start=1):
                if i != k:
                    assert c == pytest.approx(-1.0, abs=1e-14)

    def test_lossy_amplitude_composition(self):
        # branch k: 3 sign flips, one transfer factor, M-1 bounce factors
        t_amp = 0.9
        b = -0.8
        eff = BranchEfficiencies(transfer_amplitude=t_amp,
                                 blockade_reflection_amplitude=b,
                                 leakage_amplitude=0.3)
        m = 3
        s = run_addressing(m, uniform_addr(m), eff)
        expect = t_amp * abs(b) ** (m - 1) / math.sqrt(m)
        for t in s.terms:
            assert abs(t.amplitude) == pytest.approx(expect, rel=1e-12)
        assert s.norm + s.loss_total == pytest.approx(1.0, abs=1e-12)

    def test_empty_cells_monotonic(self):
        a = uniform_addr(3)
        s = store_sequence(3)
        empties = [0]
        for n in (1, 2, 3):
            s = absorb_address_bin(s, n, a)
            s = rephase_cell(s, n)
            s = reset_control(s, n)
            counts = [sum(1 for c in t.cells if c == 0) for t in s.terms]
            empties.append(max(counts))
            assert all(n <= 1 for n in counts)
        assert empties == sorted(empties)
        assert s.consumed_bins == frozenset({1, 2, 3})
        assert s.rephased_cells == frozenset({1, 2, 3})

    def test_terms_sorted_by_emitted_labels(self):
        # the final branches differ only in their emitted labels, which
        # sort as strings: "psi_a[10]" < "psi_a[1]" < "psi_a[2]"
        s = run_addressing(12, uniform_addr(12))
        bins = [int(min(t.emitted)[len("psi_a["):-1]) for t in s.terms]
        assert bins == [10, 11, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert all(t.emitted == frozenset({f"psi_a[{k}]", f"psi_in[{k}]"})
                   for k, t in zip(bins, s.terms))

    def test_closed_form_large_register(self):
        # far beyond the property test's six bins: branch k carries
        # -alpha_k * t * |b|^(M-1) and one bounce phase on every bystander
        m = 160
        rng = random.Random(160)
        raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
        amps = [a / norm for a in raw]
        t_amp = math.exp(-0.01)
        b = 60.0 / 61.0 * cmath.exp(2.5j)
        eff = BranchEfficiencies(transfer_amplitude=t_amp,
                                 blockade_reflection_amplitude=b,
                                 leakage_amplitude=1.0 / 61.0)
        s = run_addressing(m, addr(*amps), eff)
        assert len(s.terms) == m
        b_phase = b / abs(b)
        seen = set()
        for t in s.terms:
            empty = [i for i, c in enumerate(t.cells, start=1) if c == 0]
            assert len(empty) == 1
            k = empty[0]
            seen.add(k)
            assert t.control is ControlState.G
            assert t.emitted == frozenset({f"psi_in[{k}]", f"psi_a[{k}]"})
            expect = -amps[k - 1] * t_amp * abs(b) ** (m - 1)
            assert abs(t.amplitude - expect) <= 1e-12 * abs(expect)
            assert all(abs(c - b_phase) <= 1e-15
                       for i, c in enumerate(t.cells, start=1) if i != k)
        assert seen == set(range(1, m + 1))
        assert set(s.loss_ledger()) == {"transfer", "blockade_leak",
                                        "blockade_scatter"}
        assert s.norm + s.loss_total == pytest.approx(1.0, abs=1e-12)

    @given(raw=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                           allow_infinity=False),
        min_size=1, max_size=6))
    def test_norm_and_pairing_property(self, raw):
        norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
        assume(norm > 1e-3)
        amps = [a / norm for a in raw]
        live = sum(1 for a in amps if abs(a) ** 2 > 1e-12)
        assume(live >= 1)
        s = run_addressing(len(amps), addr(*amps))
        assert s.norm == pytest.approx(1.0, abs=1e-9)
        assert s.loss_total == 0.0
        for t in s.terms:
            assert t.control is ControlState.G
            assert sum(1 for c in t.cells if c == 0) == 1
            k = next(i for i, c in enumerate(t.cells, start=1) if c == 0)
            # the address photon and payload photon always pair up
            assert t.emitted == frozenset({f"psi_in[{k}]", f"psi_a[{k}]"})


class TestComposedEfficiencies:
    def test_values_from_params(self):
        p = solve_matched_params(1.0, 30.0, t2=1e4)
        eff = compose_with_dynamics(p, 50.0)
        assert eff.transfer_amplitude == pytest.approx(
            math.exp(-0.01), rel=1e-12)
        assert eff.blockade_reflection_amplitude == pytest.approx(
            -60.0 / 61.0, rel=1e-12)
        assert eff.leakage_amplitude == pytest.approx(1.0 / 61.0, rel=1e-12)

    def test_infinite_t2(self):
        p = solve_matched_params(1.0, 30.0)
        assert compose_with_dynamics(p, 123.0).transfer_amplitude == 1.0

    def test_requires_matching(self):
        p = solve_matched_params(1.0, 30.0)
        with pytest.raises(ParameterError):
            compose_with_dynamics(p.with_(f2=2.0 * p.f2), 1.0)

    def test_requires_control_atom(self, matched):
        with pytest.raises(ParameterError):
            compose_with_dynamics(matched, 1.0)

    def test_rejects_negative_tau(self):
        p = solve_matched_params(1.0, 30.0)
        with pytest.raises(ParameterError):
            compose_with_dynamics(p, -1.0)

    def test_leak_weight_matches_echo_suppression(self):
        # the leaked weight per blockade equals the suppressed echo
        # probability (1+2C)^-2 of the narrowband analysis
        p = solve_matched_params(1.0, 30.0)
        eff = compose_with_dynamics(p, 10.0)
        assert abs(eff.leakage_amplitude) ** 2 == pytest.approx(
            (1.0 + 60.0) ** -2, rel=1e-12)


class TestReporting:
    def test_state_dict_and_save(self, tmp_path, capsys):
        s = run_addressing(2, addr(0.6, 0.8))
        doc = state_to_dict(s)
        assert doc["m"] == 2
        assert doc["norm"] == pytest.approx(1.0, abs=1e-12)
        assert doc["consumed_bins"] == [1, 2]
        assert doc["cells"] == [{"index": 1, "payload_label": "psi_in[1]"},
                                {"index": 2, "payload_label": "psi_in[2]"}]
        occupied = {tuple(t["occupied"]) for t in doc["terms"]}
        assert occupied == {(0, 1), (1, 0)}
        # the saved form is the address artifact: the same document
        config = tmp_path / "a.json"
        config.write_text(json.dumps({
            "scenario": "address",
            "address": {"amplitudes": [0.6, 0.8]}}))
        path = tmp_path / "state.json"
        assert main(["address", "--config", str(config), "--out", str(path),
                     "--format", "json"]) == 0
        capsys.readouterr()
        saved = json.loads(path.read_text())
        assert {k: saved[k] for k in doc} == doc

    def test_phase_rendering_uses_cmath(self):
        # guard the table against regressions that lose the bounce sign
        s = run_addressing(2, uniform_addr(2))
        term = next(t for t in s.terms if t.cells[1] != 0)
        assert abs(cmath.phase(term.cells[1])) == pytest.approx(math.pi)


class TestProducts:
    """_times rounds every product as Python floats do, whether it takes
    the few-row path or numpy's vector path."""

    def test_paths_agree_bit_for_bit(self):
        rng = np.random.default_rng(15)
        values = rng.normal(size=4 * _FEW_ROWS) + 1j * rng.normal(size=4 * _FEW_ROWS)
        values[:4] = [complex(0.0, 0.0), complex(-0.0, 0.0),
                      complex(0.0, -0.0), complex(-0.0, -0.0)]
        for z in (-1.0, 0.7, complex(0.3, -0.8), complex(-0.0, 0.0)):
            wide = _times(values, z)
            expected = np.array([complex(v.real * z.real - v.imag * z.imag,
                                         v.real * z.imag + v.imag * z.real)
                                 for v in values.tolist()])
            assert wide.view(np.int64).tolist() == expected.view(np.int64).tolist()
            for k in range(1, _FEW_ROWS + 1):
                few = _times(values[:k], z)
                assert few.view(np.int64).tolist() == wide[:k].view(np.int64).tolist()


class TestSharedState:
    """States share their arrays with the states derived from them; no
    derived state may change the state it came from."""

    @staticmethod
    def snapshot(s):
        return json.dumps(state_to_dict(s)), s.terms, s.norm

    @staticmethod
    def arrays(s):
        out = []
        for name in type(s).__slots__:
            value = getattr(s, name, None)
            if isinstance(value, np.ndarray):
                out.append(value)
            elif isinstance(value, tuple):
                out.extend(v for v in value if isinstance(v, np.ndarray))
        return out

    def derive_three(self, make, derive):
        """Three states derived from one parent made by make(); the parent
        must read as its twin made apart, whose terms are built only after
        the derivations."""
        parent, twin = make(), make()
        children = [derive(parent) for _ in range(3)]
        assert self.snapshot(parent) == self.snapshot(twin)
        for s in [parent, *children]:
            arrays = self.arrays(s)
            assert arrays
            for a in arrays:
                assert not a.flags.writeable
                if a.size:
                    with pytest.raises(ValueError):
                        a[0] = a[0]
        return children

    def test_protocol_operations(self):
        a = uniform_addr(4)
        eff = BranchEfficiencies(transfer_amplitude=0.9,
                                 blockade_reflection_amplitude=-0.8j,
                                 leakage_amplitude=0.3)
        steps = []
        for n in (1, 2, 3):
            steps += [lambda s, n=n: absorb_address_bin(s, n, a),
                      lambda s, n=n: rephase_cell(s, n, eff),
                      lambda s, n=n: reset_control(s, n)]

        def made_by(k):
            def make():
                s = store_sequence(4)
                for step in steps[:k]:
                    s = step(s)
                return s
            return make

        for k, step in enumerate(steps):
            self.derive_three(made_by(k), step)
        # siblings from one parent with different efficiencies stay apart
        s = absorb_address_bin(made_by(len(steps))(), 4, a)
        ideal, lossy = rephase_cell(s, 4), rephase_cell(s, 4, eff)
        assert ideal.norm == pytest.approx(1.0 - s.loss_total, abs=1e-12)
        assert lossy.loss_total > ideal.loss_total

    def test_from_terms(self):
        terms = (Term(amplitude=0.6, control=ControlState.AU,
                      cells=(1.0, 1.0), absorbed_bin=1),
                 Term(amplitude=0.8, control=ControlState.G,
                      cells=(1.0, 1.0), pending_bin=2))
        children = self.derive_three(
            lambda: QramState(2, terms, consumed_bins=frozenset({1})),
            lambda p: rephase_cell(p, 1))
        assert [t.cells for t in children[0].terms] == [(0.0, 1.0), (-1.0, 1.0)]

    def test_pickle_round_trip(self):
        a = uniform_addr(3)
        s = rephase_cell(absorb_address_bin(store_sequence(3), 1, a), 1)
        copy = pickle.loads(pickle.dumps(s))
        assert state_to_dict(copy) == state_to_dict(s)
        assert (state_to_dict(absorb_address_bin(reset_control(copy, 1), 2, a))
                == state_to_dict(absorb_address_bin(reset_control(s, 1), 2, a)))

    def test_merge(self):
        children = self.derive_three(
            lambda: TestInterference().au_pair(0.6, 0.8j),
            lambda p: rephase_cell(p, 1, BranchEfficiencies(
                transfer_amplitude=0.9)))
        assert len(children[0].terms) == 1


class TestPinnedBytes:
    """The JSON document of every step of small registers, held to
    recorded bytes: a faster state layout must not move a single digit.

    Each digest is the first 16 hex digits of the sha256 of the documents
    of one register, every step in order.  One amplitude of every register
    with M > 1 is zero, so its branch is dropped and at most seven rows
    remain: a norm over fewer than eight amplitudes sums in the same order
    whatever the BLAS kernel.
    """

    DIGESTS = {
        "ideal": ("88d620a1f7b86395", "6d708a753bcc7aa1", "0e76110077bd2955",
                  "cd93212564bb9c86", "c2b2582c6fb2fb19", "86f816bc4c436cd2",
                  "e3b4858253ce18d4", "4a9b92771d39655c"),
        "c30": ("0b5063848d192cee", "aaf2fdc035924f35", "cee06e7364b61615",
                "71381e374a7b5c26", "dc81a616583ffc15", "062c2e61f8750eea",
                "068b4fb0e7766dd4", "f6bb28e2a9b6fe93"),
        "lossy": ("aacb09ca46917b31", "71b0be30d4f8cec9", "a1d5ca5a633f7cc0",
                  "cab8e6c9bfc224b2", "9621730c97509cf5", "3ce68231edd86cbc",
                  "4c9fd7c491342cfd", "2b2f4f6a4bf88b55"),
    }

    @staticmethod
    def efficiencies(name):
        if name == "ideal":
            return BranchEfficiencies()
        if name == "c30":
            return compose_with_dynamics(
                solve_matched_params(1.0, 30.0, t2=1e4), 50.0)
        return BranchEfficiencies(
            transfer_amplitude=0.9 * cmath.exp(0.3j),
            blockade_reflection_amplitude=0.8 * cmath.exp(2.1j),
            leakage_amplitude=0.25j)

    @staticmethod
    def address(m):
        rng = random.Random(m)
        raw = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
               for _ in range(m)]
        if m > 1:
            raw[m // 2] = 0.0
        norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
        return addr(*(a / norm for a in raw))

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_every_step(self, name):
        eff = self.efficiencies(name)
        got = []
        for m in range(1, 9):
            a = self.address(m)
            h = hashlib.sha256()
            s = store_sequence(m)
            h.update(json.dumps(state_to_dict(s)).encode())
            for n in range(1, m + 1):
                s = absorb_address_bin(s, n, a)
                h.update(json.dumps(state_to_dict(s)).encode())
                s = rephase_cell(s, n, eff)
                h.update(json.dumps(state_to_dict(s)).encode())
                s = reset_control(s, n)
                h.update(json.dumps(state_to_dict(s)).encode())
            got.append(h.hexdigest()[:16])
        assert tuple(got) == self.DIGESTS[name]
