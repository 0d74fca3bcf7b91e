"""Unit tests: the executor's measurement tail and system models.

The measurement rules are checked where every workload measures:
:meth:`ScheduleExecutor.execute` on a small transmon model, started
from basis kets through ``initial_state``.
"""

import numpy as np
import pytest

from repro.core import Capture, Frame, Play, Port, PulseSchedule, constant_waveform
from repro.errors import ValidationError
from repro.sim import (
    ChannelCoupling,
    DecoherenceSpec,
    ReadoutModel,
    ScheduleExecutor,
    SystemModel,
)
from repro.sim.measurement import sample_counts
from repro.sim.model import transmon_model
from repro.sim.operators import basis_state

RABI = 50e6
DT = 1e-9


def make_executor(n=2, levels=3, decoherence=None, readout=None):
    model = transmon_model(
        n,
        qubit_frequencies=[5e9 + 0.1e9 * q for q in range(n)],
        anharmonicities=[-300e6] * n,
        rabi_rates=[RABI] * n,
        dt=DT,
        levels=levels,
        decoherence=[decoherence] * n if decoherence else None,
    )
    return ScheduleExecutor(model, readout)


def measure(*slots):
    """Captures only: ``slots[i]`` is the site read into memory slot i."""
    s = PulseSchedule()
    for slot, site in enumerate(slots):
        s.append(Capture(Port.acquire(site), Frame(f"a{slot}", 0.0), slot))
    return s


def x_then_measure():
    """A pi pulse on site 0, then its capture."""
    s = PulseSchedule()
    amp = 0.5 / (RABI * 10 * DT)
    pulse = constant_waveform(10, amp)
    s.append(Play(Port.drive(0), Frame("q0-drive-frame", 5e9), pulse))
    s.append(Capture(Port.acquire(0), Frame("a0", 0.0), 0))
    return s


def run(ex, schedule, state):
    return ex.execute(schedule, shots=0, initial_state=state)


def probabilities(result):
    return {k: v for k, v in result.probabilities.items() if v > 1e-12}


#: An open model whose T1/T2 are long enough that a capture-only run
#: leaves populations where they started.
SLOW_DECAY = DecoherenceSpec(t1=1.0, t2=1.0)


class TestStateProbabilities:
    def test_ket(self):
        psi = (basis_state([0], (3,)) + 1j * basis_state([1], (3,))) / np.sqrt(2)
        p = probabilities(run(make_executor(n=1), measure(0), psi))
        assert p == {"0": pytest.approx(0.5), "1": pytest.approx(0.5)}

    def test_density_matrix(self):
        ex = make_executor(n=1, decoherence=SLOW_DECAY)
        rho = np.diag([0.3, 0.7, 0.0]).astype(complex)
        p = probabilities(run(ex, measure(0), rho))
        assert p == {"0": pytest.approx(0.3), "1": pytest.approx(0.7)}
        # An open model evolves a density matrix as rho -> U rho U^dag:
        # x from |0><0| ends where x from |0> does.
        ket = basis_state([0], (3,))
        from_ket = run(ex, x_then_measure(), ket).probabilities["1"]
        from_rho = run(ex, x_then_measure(), np.outer(ket, ket)).probabilities["1"]
        assert from_rho == pytest.approx(from_ket, abs=1e-12)
        assert from_rho > 0.9

    def test_normalizes(self):
        psi = 2.0 * basis_state([1], (3,))
        assert probabilities(run(make_executor(n=1), measure(0), psi)) == {
            "1": pytest.approx(1.0)
        }

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match=r"\(3,\) ket"):
            run(make_executor(n=1), measure(0), np.ones(4))

    def test_zero_norm(self):
        with pytest.raises(ValidationError, match="zero norm"):
            run(make_executor(n=1), measure(0), np.zeros(3))


#: Caller states the executor must refuse: (name, open model?, state).
BAD_STATES = [
    ("closed-density-matrix", False, np.diag([1.0, 0.0, 0.0])),
    ("extra-axis", False, np.ones((3, 3, 1))),
    ("open-extra-axis", True, np.ones((3, 3, 1))),
    ("nan", False, np.array([1.0, np.nan, 0.0])),
    ("inf", True, np.array([np.inf, 0.0, 0.0])),
    ("nan-density-matrix", True, np.diag([1.0, np.nan, 0.0])),
    ("short-ket", False, np.ones(2)),
    ("long-ket", True, np.ones(4)),
    ("qubit-matrix", True, np.eye(2)),
    ("zero-ket", True, np.zeros(3)),
    ("zero-trace", True, np.diag([1.0, -1.0, 0.0])),
]


@pytest.mark.parametrize("batch", [False, True], ids=["execute", "execute_batch"])
@pytest.mark.parametrize(
    "open_model, state", [c[1:] for c in BAD_STATES], ids=[c[0] for c in BAD_STATES]
)
def test_initial_state_is_checked_at_the_boundary(open_model, state, batch):
    """A caller's ``initial_state`` must be a finite, non-zero ``(D,)``
    ket, or a ``(D, D)`` density matrix on a decohering model; anything
    else raises a typed error naming the shapes, before any evolution."""
    ex = make_executor(n=1, decoherence=SLOW_DECAY if open_model else None)
    with pytest.raises(ValidationError, match="initial_state"):
        if batch:
            ex.execute_batch([x_then_measure()] * 2, shots=10, initial_state=state)
        else:
            ex.execute(x_then_measure(), shots=10, initial_state=state)


class TestBitDistribution:
    def test_marginalizes_unmeasured(self):
        ex = make_executor()
        psi = basis_state([1, 0], (3, 3))
        assert probabilities(run(ex, measure(0), psi)) == {"1": pytest.approx(1.0)}
        assert probabilities(run(ex, measure(1), psi)) == {"0": pytest.approx(1.0)}

    def test_measured_order_defines_key_order(self):
        ex = make_executor()
        psi = basis_state([1, 0], (3, 3))
        assert probabilities(run(ex, measure(0, 1), psi)) == {"10": pytest.approx(1.0)}
        # Site 1 in slot 0 and site 0 in slot 1: the key swaps.
        assert probabilities(run(ex, measure(1, 0), psi)) == {"01": pytest.approx(1.0)}

    def test_leakage_reads_as_one(self):
        result = run(make_executor(), measure(0), basis_state([2, 0], (3, 3)))
        assert probabilities(result) == {"1": pytest.approx(1.0)}
        assert result.leakage[0] == pytest.approx(1.0)

    def test_entangled_correlations(self):
        psi = (basis_state([0, 0], (3, 3)) + basis_state([1, 1], (3, 3))) / np.sqrt(2)
        p = probabilities(run(make_executor(), measure(0, 1), psi))
        assert p == {"00": pytest.approx(0.5), "11": pytest.approx(0.5)}

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValidationError, match="measured sites must be distinct"):
            run(make_executor(), measure(0, 0), basis_state([0, 0], (3, 3)))


class TestReadoutError:
    def test_single_bit_confusion(self):
        ex = make_executor(n=1, readout={0: ReadoutModel(p01=0.1)})
        result = run(ex, measure(0), basis_state([0], (3,)))
        assert result.probabilities["1"] == pytest.approx(0.1)
        assert result.probabilities["0"] == pytest.approx(0.9)
        assert result.ideal_probabilities == {"0": pytest.approx(1.0)}

    def test_two_bit_independent(self):
        readout = {0: ReadoutModel(p01=0.1), 1: ReadoutModel(p01=0.2)}
        ex = make_executor(readout=readout)
        p = run(ex, measure(0, 1), basis_state([0, 0], (3, 3))).probabilities
        assert p["00"] == pytest.approx(0.9 * 0.8)
        assert p["11"] == pytest.approx(0.1 * 0.2)

    def test_probability_conserved(self):
        readout = {site: ReadoutModel(p01=0.05, p10=0.03) for site in (0, 1)}
        ex = make_executor(readout=readout)
        psi = np.sqrt(0.6) * basis_state([0, 1], (3, 3)) + np.sqrt(0.4) * basis_state(
            [1, 0], (3, 3)
        )
        p = run(ex, measure(0, 1), psi).probabilities
        assert sum(p.values()) == pytest.approx(1.0)
        assert p["01"] == pytest.approx(0.6 * 0.95 * 0.97 + 0.4 * 0.03 * 0.05)

    def test_invalid_probability(self):
        with pytest.raises(ValidationError):
            ReadoutModel(p01=1.5)


class TestSampling:
    def test_total_shots(self, rng):
        counts = sample_counts({"0": 0.5, "1": 0.5}, 1000, rng)
        assert sum(counts.values()) == 1000

    def test_deterministic_for_seed(self):
        d = {"0": 0.3, "1": 0.7}
        c1 = sample_counts(d, 500, np.random.default_rng(1))
        c2 = sample_counts(d, 500, np.random.default_rng(1))
        assert c1 == c2

    def test_zero_shots(self, rng):
        assert sample_counts({"0": 1.0}, 0, rng) == {}

    def test_negative_shots(self, rng):
        with pytest.raises(ValidationError):
            sample_counts({"0": 1.0}, -1, rng)

    def test_statistics_converge(self):
        rng = np.random.default_rng(7)
        counts = sample_counts({"0": 0.25, "1": 0.75}, 100_000, rng)
        assert counts["1"] / 100_000 == pytest.approx(0.75, abs=0.01)


class TestLeakage:
    def test_qutrit_leakage(self):
        result = run(make_executor(), measure(0, 1), basis_state([2, 0], (3, 3)))
        assert result.leakage[0] == pytest.approx(1.0)
        assert result.leakage[1] == 0.0

    def test_qubit_has_none(self):
        ex = make_executor(n=1, levels=2)
        assert run(ex, measure(0), basis_state([1], (2,))).leakage[0] == 0.0


class TestSystemModel:
    def test_transmon_model_shapes(self):
        m = transmon_model(
            2,
            qubit_frequencies=[5e9, 5.1e9],
            anharmonicities=[-300e6, -300e6],
            rabi_rates=[50e6, 50e6],
            couplings={(0, 1): 20e6},
            levels=3,
        )
        assert m.dimension == 9
        assert m.n_sites == 2
        assert "q0-drive-port" in m.channels
        assert "q0q1-coupler-port" in m.channels
        assert not m.has_decoherence()

    def test_anharmonicity_in_drift(self):
        m = transmon_model(
            1,
            qubit_frequencies=[5e9],
            anharmonicities=[-300e6],
            rabi_rates=[50e6],
            levels=3,
        )
        # Drift diagonal: 0 for |0>,|1>; alpha for |2>.
        d = np.real(np.diag(m.drift))
        assert d[0] == pytest.approx(0.0)
        assert d[1] == pytest.approx(0.0)
        assert d[2] == pytest.approx(-300e6)

    def test_non_hermitian_drift_rejected(self):
        with pytest.raises(ValidationError):
            SystemModel(
                dims=(2,),
                drift=np.array([[0, 1], [0, 0]], dtype=complex),
                channels={},
            )

    def test_channel_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            SystemModel(
                dims=(2,),
                drift=np.zeros((2, 2), dtype=complex),
                channels={
                    "p": ChannelCoupling(np.zeros((3, 3)), 5e9, 1e6)
                },
            )

    def test_channel_lookup_error_message(self):
        m = transmon_model(
            1, qubit_frequencies=[5e9], anharmonicities=[-3e8], rabi_rates=[5e7]
        )
        with pytest.raises(ValidationError):
            m.channel("missing-port")

    def test_decoherence_spec_validation(self):
        with pytest.raises(ValidationError):
            DecoherenceSpec(t1=-1.0)
        spec = DecoherenceSpec()
        assert not spec.has_decoherence
        assert DecoherenceSpec(t1=1e-5, t2=1e-5).has_decoherence

    def test_bad_rabi_rate(self):
        with pytest.raises(ValidationError):
            ChannelCoupling(np.zeros((2, 2)), 5e9, 0.0)
