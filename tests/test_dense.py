import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditlearn import dense
from quditlearn.dense import MAX_AMPLITUDES, DenseState, StateError, _real_qft, qft_matrix, weighted_index
from quditlearn.field import FieldParams
from quditlearn.learners import sis_sample_state
from quditlearn.ring import RingEmbedding, ring_sample_state
from quditlearn.samples import NoiseModel, draw_sample_spec, drawers, materialize_dense

from conftest import basis_state, make_rng


def inverse_qft(state: DenseState, register: int) -> DenseState:
    """|k> -> (1/sqrt(q)) sum_j omega^(-jk) |j> on one register (test-only reference)."""
    out = np.tensordot(qft_matrix(state.fp.q).conj(), state.amps.reshape(state.shape), axes=([1], [register]))
    return DenseState(state.fp, state.num_registers, np.moveaxis(out, 0, register))


def random_state(q: int, m: int, key: int) -> DenseState:
    rng = make_rng(key)
    amps = rng.normal(size=q**m) + 1j * rng.normal(size=q**m)
    return DenseState(FieldParams(q), m, amps / np.linalg.norm(amps))


def test_single_basis_state():
    st_ = basis_state([((0,), 1.0)], FieldParams(3))
    assert st_.probabilities()[0] == pytest.approx(1.0)


def test_uniform_qutrit_probabilities():
    st_ = basis_state([((0,), 1), ((1,), 1), ((2,), 1)], FieldParams(3))
    assert np.allclose(st_.probabilities(), 1.0 / 3)


def test_sample_state_construction_n1_q3():
    # secret 2, no errors: terms (a, 2a mod 3), equal weight
    fp = FieldParams(3)
    st_ = basis_state([((a, 2 * a % 3), 1.0) for a in range(3)], fp)
    probs = st_.probabilities().reshape(3, 3)
    for a in range(3):
        assert probs[a, 2 * a % 3] == pytest.approx(1.0 / 3)
    assert probs.sum() == pytest.approx(1.0)


def test_duplicate_basis_terms_rejected():
    with pytest.raises(StateError):
        basis_state([((1,), 1.0), ((1,), 0.5)], FieldParams(3))


def test_all_zero_amplitudes_rejected():
    with pytest.raises(StateError):
        basis_state([((1,), 0.0)], FieldParams(3))


def test_mismatched_register_counts_rejected():
    with pytest.raises(StateError):
        basis_state([((1,), 1.0), ((1, 2), 1.0)], FieldParams(3))


def test_size_cap_enforced():
    fp = FieldParams(1021)
    assert 1021**3 > MAX_AMPLITUDES
    with pytest.raises(StateError, match="cap"):
        DenseState(fp, 3, np.zeros(8))  # cap rejection fires before shape checks


def test_size_cap_fires_before_any_allocation():
    fp = FieldParams(3)  # 3^30 amplitudes would take 2.9 PiB
    with pytest.raises(StateError, match="cap"):
        DenseState.uniform(fp, 30, np.array([0, 1]))
    with pytest.raises(StateError, match="cap"):
        DenseState(fp, 30, np.zeros(2))
    emb = RingEmbedding.build(FieldParams(7681), 256)  # n = 128: the indices alone would not fit
    with pytest.raises(StateError, match="cap"):
        ring_sample_state(emb, (1,) * emb.n, (0,) * emb.n)
    with pytest.raises(StateError, match=r"^dense state of 4099\^44 amplitudes exceeds the 2\*\*22 cap"):
        sis_sample_state(FieldParams(4099), 43, (0,) * 43)  # q^44 in full is a 159-digit integer


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 31, 101])
def test_qft_matrix_unitary(q):
    f = qft_matrix(q)
    assert np.max(np.abs(f.conj().T @ f - np.eye(q))) <= 1e-9
    assert np.array_equal(f, f.T)  # F[j, k] = omega^(jk) / sqrt(q) is symmetric in j and k


def test_qft_of_zero_is_uniform():
    st_ = basis_state([((0,), 1.0)], FieldParams(5)).apply_qft(0)
    assert np.allclose(st_.probabilities(), 0.2, atol=1e-12)


def test_qft_then_inverse_restores_state():
    st_ = random_state(5, 3, key=11)
    back = inverse_qft(st_.apply_qft(1), 1)
    assert np.abs(back.amps - st_.amps).max() <= 1e-9


def _states_to_measure(q: int, registers: int, key: int) -> list[DenseState]:
    """Uniform states on every index, on a random subset (about 30% of them) and on one index.

    A state that holds amplitudes and no support is measured by the reference
    itself, so only states with a support test ``measure_qft_all`` here.
    """
    local, size, fp = make_rng(key), q**registers, FieldParams(q)
    subset = (local.random(size) < 0.3).nonzero()[0]
    if subset.size == 0:
        subset = local.integers(size, size=1)
    supports = (np.arange(size), subset, local.integers(size, size=1))
    return [DenseState.uniform(fp, registers, flat) for flat in supports] + _sample_states(q, registers, key)


RING_CONDUCTOR = {5: 4, 7: 3, 13: 4}  # m | q - 1 with phi(m) = 2, so 4 registers


def _sample_states(q: int, registers: int, key: int) -> list[DenseState]:
    """Sample states with a recorded support, on both sides of the compact rule at register 0.

    An LWE sample over F_q^n has q^n register-0 columns: v = q^(n-1) takes the
    compact pass, v = q^n the full one.  Ring samples are compact, with
    phi(s) = (0, 3), (3, 0) and phi(s) all nonzero, each with two errors.  A
    register's columns stay distinct while phi(s) is nonzero on it and on every
    register before it, so their support passes stop at registers 0, 1 and 2:
    with phi(s)_0 = 0 the q values of phi(a)_0 that agree elsewhere share a
    column at once, which the live-column block at register 0 must merge.
    """
    fp, n, local = FieldParams(q), registers - 1, make_rng(key)
    noise = NoiseModel.bernoulli(0.25) if q == 2 else NoiseModel.bounded_uniform(1)
    s = tuple(int(x) for x in local.integers(q, size=n))
    states = [materialize_dense(draw_sample_spec(fp, n, s, v, noise, local))
              for v in (q ** (n - 1), q**n) if n >= 2]
    if registers == 4 and q in RING_CONDUCTOR:
        emb = RingEmbedding.build(fp, RING_CONDUCTOR[q])
        for secret in (emb.unembed((0, 3)), emb.unembed((3, 0)), (1, 1)):
            for error in ((0, 0), (2, 1)):
                states.append(ring_sample_state(emb, secret, error))
    return states


@pytest.mark.parametrize("q, registers", [
    (q, m) for q in (2, 3, 5, 7, 13, 101) for m in range(1, 10) if q**m <= 2**15
])
def test_measure_qft_all_reproduces_the_full_transform_then_measure(q, registers):
    for which, state in enumerate(_states_to_measure(q, registers, key=1000 * q + registers)):
        reference, fast = make_rng(which), make_rng(which)
        for _ in range(50):
            assert state.measure_qft_all(fast) == state.apply_qft_all().measure_all(reference)
        assert fast.random() == reference.random()  # both paths draw one uniform per outcome


class _RecordedProducts:
    """A real QFT matrix that logs each product ``measure_qft_all`` forms with it as (operand, product)."""

    def __init__(self, matrix: np.ndarray, events: list):
        self.matrix, self.events = matrix, events

    def __getitem__(self, key):
        return _RecordedProducts(self.matrix[key], self.events)

    def __matmul__(self, operand: np.ndarray) -> np.ndarray:
        product = self.matrix @ operand
        self.events.append((operand, product))
        return product


def _record_registers(monkeypatch, q: int) -> list:
    """The events of the next ``measure_qft_all`` calls at dimension q, one per register in order:
    None for a gather (its one ``qft_matrix`` read) and (operand, product) for the one real
    product of a block or a dense row."""
    events, real_qft, matrix = [], _real_qft, qft_matrix
    real_qft(q)  # built now, so that building it reads no F into the log

    def gather(q):
        events.append(None)
        return matrix(q)

    monkeypatch.setattr(dense, "qft_matrix", gather)
    monkeypatch.setattr(dense, "_real_qft", lambda q: _RecordedProducts(real_qft(q), events))
    return events


def test_measure_qft_all_clamps_a_target_past_the_chosen_rows_mass(monkeypatch):
    # The second register's row total is summed anew and can round below the
    # first register's CDF step; a target between the two then lies past every
    # entry of the row, which must still give an outcome in range.
    class FixedUniform:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    # Two or more entries fill more than a q-th of register 0's 3 columns, so a
    # full block is built at register 0 and register 1 is its chosen dense row.
    events = _record_registers(monkeypatch, 3)
    for flat in itertools.chain.from_iterable(itertools.combinations(range(9), size) for size in range(2, 10)):
        state = DenseState.uniform(FieldParams(3), 2, flat)
        events.clear()
        state.measure_qft_all(FixedUniform(0.0))  # row 0 wherever it holds mass
        first, second = (product.reshape(3, -1) for _, product in events)  # the loop's own rows
        cdf = np.vecdot(first, first).cumsum()  # summed as measure_qft_all sums them
        row_total = np.vecdot(second, second).sum()
        u = np.nextafter(cdf[0] / cdf[-1], 0.0)
        if row_total <= u * cdf[-1] < cdf[0]:
            assert state.measure_qft_all(FixedUniform(float(u))) == (0, 2)
            return
    pytest.fail("no state of the search has a row total below its CDF step")


def test_sample_states_cover_both_first_passes_and_shared_columns():
    kinds = set()  # (compact at register 0, support entries sharing a column) per state measured above
    for q, registers in ((3, 6), (5, 4), (7, 4), (13, 4)):
        for state in _sample_states(q, registers, key=1000 * q + registers):
            columns = state.amps.size // q
            compact = state.support.size * q <= columns
            kinds.add((compact, compact and np.unique(state.support % columns).size < state.support.size))
    assert kinds == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("q", sorted(RING_CONDUCTOR))
def test_support_passes_stop_where_columns_collide_with_a_qth_of_the_mass_per_row(q, monkeypatch):
    states = _sample_states(q, 4, key=1000 * q + 4)
    events = _record_registers(monkeypatch, q)
    # Per register, "g" for a gather and "b" for a block or dense row.  lwe at v = q^2 fails the compact
    # rule; ring with phi(s) = (0, 3), (3, 0), then both nonzero, two errors each.  A live block's chosen
    # row is entries again: with phi(s)_0 = 0 they are q entries whose later columns are distinct, and with
    # phi(s)_1 = 0 they are q entries in one column, whose one-column block leaves one entry.
    # (the lwe state at v = q is compact, and where its gathers stop depends on its drawn subset)
    families = {1: "bbbb", 2: "bggb", 3: "bggb", 4: "gbbg", 5: "gbbg", 6: "ggbb", 7: "ggbb"}
    assert len(states) == 8
    for which, state in enumerate(states):
        support, columns, stop = state.support, q**3, 0
        if support.size * q <= columns:  # the compact rule, then distinct columns after each register
            while np.unique(support % columns).size == support.size:
                stop, columns = stop + 1, columns // q
        for seed in range(5):
            events.clear()
            outcome = state.measure_qft_all(make_rng(seed))
            kinds = "".join("b" if event else "g" for event in events)
            assert kinds.startswith("g" * stop + "b") and families.get(which, kinds) == kinds
            kept = state.amps  # the slice that each register measures
            for kind, x in zip(kinds, outcome):
                transformed = qft_matrix(q) @ kept.reshape(q, -1)
                if kind == "g":  # each row holds a q-th of the kept mass
                    masses = np.vecdot(transformed, transformed).real
                    assert np.abs(masses * q / np.vdot(kept, kept).real - 1.0).max() <= 1e-12
                kept = transformed[x]


def _scattered(size: int, flat: list[int]) -> np.ndarray:
    """The uniform superposition on ``flat``, built by writing into a zeroed vector."""
    amps = np.zeros(size, dtype=np.complex128)
    amps[flat] = 1.0 / math.sqrt(len(flat))
    return amps


def test_uniform_matches_the_scattered_construction_bit_for_bit():
    q, n, s = 5, 2, (3, 1)
    fp, shape = FieldParams(q), (q,) * (n + 1)
    spec = draw_sample_spec(fp, n, s, 11, NoiseModel.bounded_uniform(1), make_rng(5))
    lwe = [np.ravel_multi_index((*a, (np.dot(a, s) + e) % q), shape)
           for a, e in zip(zip(*np.unravel_index(spec.subset, (q,) * n)), spec.errors)]
    sis = [np.ravel_multi_index((*a, np.dot(a, s) % q), shape) for a in itertools.product(range(q), repeat=n)]
    for state, flat in ((materialize_dense(spec), lwe), (sis_sample_state(fp, n, s), sis)):
        assert state.amps.tobytes() == _scattered(state.amps.size, flat).tobytes()
        assert sorted(state.support.tolist()) == sorted(flat)


@pytest.mark.parametrize("q, m", [(3, 2), (5, 4), (7, 3), (7, 6), (13, 4), (13, 6), (29, 4)])
def test_ring_state_matches_the_phi_a_scatter_bit_for_bit(q, m):
    emb = RingEmbedding.build(FieldParams(q), m)
    rng = make_rng(100 * q + m)

    def draw(low):
        return tuple(int(x) for x in rng.integers(low, q, size=emb.n))

    # phi(s) with a zero coordinate makes that coordinate of every second block constant
    secrets = (emb.unembed((0, *draw(1)[1:])), draw(0))
    for s, e in itertools.product(secrets, ((0,) * emb.n, draw(1))):
        phi_s, phi_e = emb.embed(s), emb.embed(e)
        flat = []
        for a in itertools.product(range(q), repeat=emb.n):  # every a in R_q, by its coefficients
            phi_a = emb.embed(a)
            second = [(x * y + z) % q for x, y, z in zip(phi_a, phi_s, phi_e)]
            flat.append(np.ravel_multi_index((*phi_a, *second), (q,) * (2 * emb.n)))
        state = ring_sample_state(emb, s, e)
        assert state.amps.tobytes() == _scattered(state.amps.size, flat).tobytes()
        assert sorted(state.support.tolist()) == sorted(flat)
        # and the support, in order, is the outer sum over y = phi(a) with y_0 most significant
        second = np.zeros(1, dtype=np.int64)
        for si, ei in zip(phi_s, phi_e):
            second = (second[:, None] * q + (np.arange(q) * si + ei) % q).ravel()
        outer = np.arange(q**emb.n, dtype=np.int64) * q**emb.n + second
        assert state.support.dtype == np.int64 and state.support.tobytes() == outer.tobytes()


@pytest.mark.parametrize("q, registers", [(3, 6), (5, 4), (7, 4), (13, 4)])
def test_measure_qft_all_is_the_same_before_and_after_the_amplitudes_are_read(q, registers):
    key = 1000 * q + registers
    read = _sample_states(q, registers, key)
    for state in read:
        assert not state.amps.flags.writeable
    for which, (fresh, built) in enumerate(zip(_sample_states(q, registers, key), read)):
        lazy, eager = make_rng(which), make_rng(which)
        for _ in range(50):
            assert fresh.measure_qft_all(lazy) == built.measure_qft_all(eager)
        assert lazy.random() == eager.random()


def _with_a_repeated_index(state: DenseState) -> DenseState:
    """The state's support with its first index written twice and its last dropped."""
    flat = state.support.copy()
    flat[-1] = flat[0]
    return DenseState.uniform(state.fp, state.num_registers, flat)


def test_a_repeated_support_index_fails_the_norm_check_in_both_first_passes():
    fp, q = FieldParams(5), 5
    ring_state = ring_sample_state(RingEmbedding.build(fp, 4), (1, 2), (3, 4))
    spec = draw_sample_spec(fp, 3, (1, 2, 3), q**3, NoiseModel.bounded_uniform(1), make_rng(3))
    lwe_state = materialize_dense(spec)
    for state, compact in ((ring_state, True), (lwe_state, False)):
        columns = q ** (state.num_registers - 1)
        assert (state.support.size * q <= columns) == compact
        bad, rng = _with_a_repeated_index(state), make_rng(4)
        with pytest.raises(StateError, match="norm"):
            bad.measure_qft_all(rng)
        assert rng.random() == make_rng(4).random()  # no outcome was drawn
        for _ in range(2):  # a failed read leaves no amplitudes behind
            with pytest.raises(StateError, match="norm"):
                bad.amps


@pytest.mark.parametrize("q, m", [(13, 4), (29, 4)])
def test_a_ring_sample_allocates_no_state_sized_array(q, m):
    emb = RingEmbedding.build(FieldParams(q), m)
    qth = q ** (2 * emb.n) * 16 / q  # a q-th of the state's complex amplitudes, in bytes
    # phi(s) = (3, 5) gathers two registers; (0, 7) takes a live block at register 0 and (7, 0) at
    # register 1, whose chosen rows are entries again, so no pass holds a q-th of the state.
    for phi_s in ((3, 5), (0, 7), (7, 0)):
        s, rng = emb.unembed(phi_s), make_rng(q)
        ring_sample_state(emb, s, (2, 1)).measure_qft_all(rng)  # warm the memoized matrices
        tracemalloc.start()
        try:
            ring_sample_state(emb, s, (1, 2)).measure_qft_all(rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < qth, phi_s


def _builder_states(builder: str, count: int, key: int) -> list[DenseState]:
    """``count`` drawn sample states of one builder, each from fresh draws.

    lwe-subset (v = 40 <= 7^2), the ring builders and lwe-sparse (v = 7) fill
    at most a q-th of register 0's columns, so their columns are tested there;
    lwe-single (v = 1) is a gather at every register.  The others build a
    full block at register 0.  ring-phi0 draws ring (13, 4) secrets with
    phi(s)_0 = 0 and phi(s)_1 != 0, so every one takes a live block at
    register 0 whose chosen row is gathered at registers 1 and 2.
    """
    rng = make_rng(key)
    if builder == "ring":
        emb = RingEmbedding.build(FieldParams(7), 3)
        return [ring_sample_state(emb, tuple(int(x) for x in rng.integers(7, size=2)),
                                  tuple(int(x) for x in rng.integers(7, size=2))) for _ in range(count)]
    if builder == "ring-phi0":
        emb = RingEmbedding.build(FieldParams(13), 4)
        return [ring_sample_state(emb, emb.unembed((0, int(rng.integers(1, 13)))),
                                  tuple(int(x) for x in rng.integers(13, size=2))) for _ in range(count)]
    if builder == "sis":
        return [sis_sample_state(FieldParams(7), 2, tuple(int(x) for x in rng.integers(-1, 2, size=2)))
                for _ in range(count)]
    q, n, v, noise = {
        "lwe-full": (7, 3, 343, NoiseModel.bounded_uniform(1)),
        "lwe-subset": (7, 3, 40, NoiseModel.gaussian(1.0, 2)),
        "lwe-global": (7, 3, 343, NoiseModel.global_shift(NoiseModel.bounded_uniform(2))),
        "lpn": (2, 8, 256, NoiseModel.bernoulli(0.1)),
        "lwe-single": (7, 3, 1, NoiseModel.bounded_uniform(1)),
        "lwe-sparse": (7, 3, 7, NoiseModel.bounded_uniform(1)),
    }[builder]
    draw = drawers(FieldParams(q), n, tuple(int(x) for x in rng.integers(q, size=n)), v, noise)[0]
    return [materialize_dense(draw(rng)) for _ in range(count)]


BUILDERS = ("lwe-full", "lwe-subset", "lwe-global", "lpn", "ring", "sis", "lwe-single", "lwe-sparse", "ring-phi0")


@pytest.mark.parametrize("builder", BUILDERS)
def test_the_support_built_first_pass_matches_the_complex_product(builder, monkeypatch):
    states = _builder_states(builder, 1000, key=len(builder))
    q, f = states[0].fp.q, qft_matrix(states[0].fp.q)
    events = _record_registers(monkeypatch, q)
    kinds = set()  # (built after register 0, live columns only) per block
    for seed, state in enumerate(states):
        events.clear()
        outcome = state.measure_qft_all(make_rng(seed))
        assert state._amps is None  # the gathers and blocks read the support only
        assert len(events) == state.num_registers
        kept, blocks = state.amps, True  # the slice that each register measures; blocks until a full one
        for register, (event, x) in enumerate(zip(events, outcome)):
            transformed = f @ kept.reshape(q, -1)
            if event and blocks:
                rows = event[1].reshape(q, 2, -1)
                columns, width = transformed.shape[1], rows.shape[2]
                live = np.unique(state.support % columns)  # the columns that any entry reaches
                if width < columns:  # a live block leaves out only columns that hold no amplitude
                    assert width == live.size and not np.delete(transformed, live, axis=1).any()
                else:
                    live, blocks = slice(None), False  # its chosen row is a dense row
                assert np.abs(rows[:, 0] + 1j * rows[:, 1] - transformed[:, live]).max() <= 1e-15
                kinds.add((register > 0, width < columns))
            kept = transformed[x]
    assert kinds == {
        "lwe-subset": {(False, True), (True, False)},
        "ring": {(False, True), (True, True), (True, False)},
        "lwe-single": set(),
        "lwe-sparse": {(False, True), (True, True), (True, False)},
        "ring-phi0": {(False, True), (True, False)},
    }.get(builder, {(False, False)})


@pytest.mark.parametrize("builder", BUILDERS)
def test_measure_qft_all_matches_the_full_transform_on_2000_seeds(builder):
    seed = 0
    for state in _builder_states(builder, 200, key=100 + len(builder)):
        transformed = state.apply_qft_all()
        for _ in range(10):
            fast, reference = make_rng(seed), make_rng(seed)
            assert state.measure_qft_all(fast) == transformed.measure_all(reference)
            assert fast.random() == reference.random()
            seed += 1
    assert seed == 2000


@pytest.mark.parametrize("flat, message", [
    ([], "non-empty 1-d"),
    (np.zeros(0, dtype=np.int64), "non-empty 1-d"),
    ([[0, 7]], "non-empty 1-d"),
    ([0.0, 7.0], "must be integers"),
    (np.array([True, False]), "must be integers"),
    ([0, 125], r"outside \[0, 125\)"),
    ([-1, 3], r"outside \[0, 125\)"),
    (np.array([2**63 + 3, 0], dtype=np.uint64), r"outside \[0, 125\)"),
])
def test_uniform_rejects_a_support_it_cannot_measure(flat, message):
    with pytest.raises(StateError, match=message):
        DenseState.uniform(FieldParams(5), 3, flat)


def test_uniform_keeps_an_integer_support_as_read_only_int64():
    small = DenseState.uniform(FieldParams(5), 3, np.array([0, 7, 124], dtype=np.uint8))
    own = np.array([0, 7, 124], dtype=np.int64)
    wide = DenseState.uniform(FieldParams(5), 3, own)
    assert wide.support is own and not own.flags.writeable  # an int64 array is kept, not copied
    for state in (small, wide):
        assert state.support.dtype == np.int64 and not state.support.flags.writeable
        assert state.support.tolist() == [0, 7, 124]
    assert small.measure_qft_all(make_rng(3)) == wide.apply_qft_all().measure_all(make_rng(3))


def test_uniform_state_is_read_only():
    state = DenseState.uniform(FieldParams(5), 3, np.array([0, 7, 31, 124]))
    assert state.amps is state.amps  # built once, on first read
    with pytest.raises(ValueError, match="read-only"):
        state.amps[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.amps *= 1.01
    assert state.measure_qft_all(make_rng(1)) == state.apply_qft_all().measure_all(make_rng(1))


def test_amplitudes_cannot_be_reassigned():
    uniform = DenseState.uniform(FieldParams(5), 3, np.array([0, 7, 31, 124]))
    for state in (uniform, random_state(5, 3, key=19)):
        with pytest.raises(AttributeError):
            state.amps = np.eye(1, 125, dtype=np.complex128).ravel()
        with pytest.raises(AttributeError):  # the checked support is the measurement's only input
            state.support = np.array([-1, 3])


def test_measure_qft_all_rejects_amplitudes_scaled_after_construction():
    state = random_state(5, 3, key=19)
    np.multiply(state.amps, 1.01, out=state.amps)
    with pytest.raises(StateError, match="norm"):
        state.measure_qft_all(make_rng(1))


def test_noiseless_recovery_probability_q3_n2():
    # total post-QFT probability of outcomes {(-j*s, j*): j* != 0} is (q-1)/q
    fp = FieldParams(3)
    s = (1, 2)
    terms = [((a0, a1, (a0 * s[0] + a1 * s[1]) % 3), 1.0) for a0 in range(3) for a1 in range(3)]
    post = basis_state(terms, fp).apply_qft_all()
    probs = post.probabilities().reshape(3, 3, 3)
    total = sum(
        probs[(-j * s[0]) % 3, (-j * s[1]) % 3, j] for j in range(1, 3)
    )
    assert total == pytest.approx(2.0 / 3, abs=1e-9)


def test_add_multiple_factor_zero_is_identity():
    st_ = random_state(5, 2, key=13)
    assert np.array_equal(st_.apply_add_multiple(0, 1, 0).amps, st_.amps)


def test_add_multiple_on_basis_state():
    fp = FieldParams(5)
    st_ = basis_state([((2, 1), 1.0)], fp).apply_add_multiple(0, 1, 3)
    probs = st_.probabilities().reshape(5, 5)
    assert probs[2, (1 + 3 * 2) % 5] == pytest.approx(1.0)


def test_add_multiple_inverse_pair():
    st_ = random_state(7, 2, key=14)
    roundtrip = st_.apply_add_multiple(0, 1, 3).apply_add_multiple(0, 1, 4)
    assert np.abs(roundtrip.amps - st_.amps).max() <= 1e-12


def test_add_multiple_preserves_probability_multiset_exactly():
    st_ = random_state(7, 2, key=15)
    shifted = st_.apply_add_multiple(1, 0, 5)
    assert np.array_equal(np.sort(st_.probabilities()), np.sort(shifted.probabilities()))


def _add_multiple_by_rolls(state: DenseState, source: int, target: int, factor: int) -> np.ndarray:
    """The reference permutation: roll each source slice of the target axis by factor * a_src."""
    q = state.fp.q
    factor %= q
    grid = np.moveaxis(state.amps.reshape(state.shape), (source, target), (0, 1)).reshape(q, q, -1)
    out = np.empty_like(grid)
    for a in range(q):
        out[a] = np.roll(grid[a], (factor * a) % q, axis=0)
    return np.ascontiguousarray(np.moveaxis(out.reshape((q, q) + state.shape[2:]), (0, 1), (source, target)))


@pytest.mark.parametrize("q, registers", [(2, 3), (3, 3), (5, 3), (7, 3), (3, 4)])
def test_add_multiple_gather_matches_roll_loop_bitwise(q, registers):
    st_ = random_state(q, registers, key=q * 10 + registers)
    for source, target in itertools.permutations(range(registers), 2):
        for factor in [*range(q), -3, q + 2]:
            gathered = st_.apply_add_multiple(source, target, factor).amps
            assert gathered.tobytes() == _add_multiple_by_rolls(st_, source, target, factor).tobytes()


def test_add_multiple_requires_distinct_registers():
    with pytest.raises(StateError):
        random_state(3, 2, key=16).apply_add_multiple(1, 1, 1)


def test_measure_register_deterministic_on_basis_state(rng):
    st_ = basis_state([((0,), 1.0)], FieldParams(3))
    assert all(weighted_index(st_.register_marginal(0), rng) == 0 for _ in range(50))


def test_measure_register_uniform_qutrit_frequencies(rng):
    st_ = basis_state([((v,), 1.0) for v in range(3)], FieldParams(3))
    n = 100_000
    counts = np.bincount([weighted_index(st_.register_marginal(0), rng) for _ in range(n)], minlength=3)
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) <= 3 * sigma)


def test_sis_correct_candidate_screens_to_zero(rng):
    # (1/sqrt(5)) sum_a |a>|a*v>, add j*a with j = -v: first register QFTs to |0>
    fp = FieldParams(5)
    v = 2
    st_ = basis_state([((a, a * v % 5), 1.0) for a in range(5)], fp)
    screened = st_.apply_add_multiple(0, 1, (-v) % 5).apply_qft(0)
    assert screened.register_marginal(0)[0] == pytest.approx(1.0, abs=1e-12)
    assert all(weighted_index(screened.register_marginal(0), rng) == 0 for _ in range(200))


def test_measure_all_on_basis_state(rng):
    st_ = basis_state([((3, 1), 1.0)], FieldParams(5))
    assert st_.measure_all(rng) == (3, 1)


@pytest.mark.parametrize("registers", [1, 3])
def test_measurement_leaves_amplitudes_unchanged(rng, registers):
    # a measurement only reads the state, and weighted_index only reads the weights it samples from
    st_ = random_state(5, registers, key=17)
    before = st_.amps.copy()
    st_.measure_all(rng)
    for register in range(registers):
        weighted_index(st_.register_marginal(register), rng)
    assert np.array_equal(st_.amps, before)
    weights = st_.probabilities()
    weighted_index(weights, rng)
    assert np.array_equal(weights, st_.probabilities())


def test_measure_all_marginal_uniform_noiseless_sample(rng):
    fp = FieldParams(5)
    s = 3
    st_ = basis_state([((a, a * s % 5), 1.0) for a in range(5)], fp)
    n = 100_000
    first = np.zeros(5, dtype=int)
    for _ in range(n):
        a, b = st_.measure_all(rng)
        assert b == a * s % 5
        first[a] += 1
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert np.all(np.abs(first - n / 5) <= 3 * sigma)


def test_measured_category_frequencies_match_enumerated_distribution(rng):
    # post-QFT noisy sample at q=7, s=4; oracle = full amplitude enumeration
    fp = FieldParams(7)
    errors = [int(e) for e in make_rng(77).integers(-1, 2, size=7)]
    post = basis_state(
        [((a, (a * 4 + errors[a]) % 7), 1.0) for a in range(7)], fp
    ).apply_qft_all()
    probs = post.probabilities().reshape(7, 7)
    exact_secret_rate = sum(probs[(-j * 4) % 7, j] for j in range(1, 7))
    n = 20_000
    hits = 0
    for _ in range(n):
        j, jstar = post.measure_all(rng)
        if jstar != 0 and j == (-jstar * 4) % 7:
            hits += 1
    sigma = np.sqrt(exact_secret_rate * (1 - exact_secret_rate) / n)
    assert abs(hits / n - exact_secret_rate) <= 3 * sigma + 1e-12


def test_register_index_validation():
    st_ = random_state(3, 2, key=17)
    with pytest.raises(StateError):
        st_.apply_qft(2)
    with pytest.raises(StateError):
        st_.register_marginal(-1)


def test_corrupted_amplitudes_rejected():
    st_ = random_state(3, 2, key=18)
    bad = st_.amps.copy()
    bad[0] += 0.1
    with pytest.raises(StateError):
        DenseState(st_.fp, 2, bad)


@given(st.sampled_from([(2, 3), (3, 2), (5, 2), (7, 1)]), st.integers(0, 2**32 - 1))
def test_norm_preserved_through_random_pipelines(shape, key):
    q, m = shape
    state = random_state(q, m, key=key)
    rng = make_rng(key ^ 0xF00D)
    for _ in range(3):
        op = rng.integers(3)
        if op == 0:
            state = state.apply_qft(int(rng.integers(m)))
        elif op == 1 and m >= 2:
            regs = rng.choice(m, size=2, replace=False)
            state = state.apply_add_multiple(int(regs[0]), int(regs[1]), int(rng.integers(q)))
        else:
            state = inverse_qft(state, int(rng.integers(m)))
    assert abs(float(np.vdot(state.amps, state.amps).real) - 1.0) <= 1e-9


def test_qft_matrix_is_cached_and_read_only():
    f = qft_matrix(7)
    assert qft_matrix(7) is f
    with pytest.raises(ValueError):
        f[0, 0] = 0.0
