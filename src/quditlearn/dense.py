"""Dense state-vector engine over registers of equal prime dimension q.

States are complex amplitude vectors of length q**m for m registers, built
directly from their basis expansion (no gate synthesis).  Register 0 is the
most significant index of the flat vector, matching numpy's C order, so
``np.unravel_index`` yields register values in register order.

Operations are functional: each returns a fresh state and re-checks the
norm, so a drifting amplitude vector is caught at the operation where it
appears.  Measurements sample an outcome but do not produce a collapsed
residual state, and leave the measured state as it was.  The SIS learner
reads each candidate's screened marginal once and draws every round of a
fixed sample from it; every other consumer discards a sample after its one
measurement.

The learners sample the recovery outcome with ``measure_qft_all``, which
transforms and measures one register at a time and never forms the
transformed state.  A sample state built by ``DenseState.uniform`` holds
only its support, the checked, read-only flat indices of its equal nonzero
amplitudes.  When the support fills at most a q-th of register 0's columns,
``measure_qft_all`` measures it on its (index, value) entries for as long
as their columns after the current register stay distinct: each such pass
is a gather, and since no two entries interfere, every row holds exactly a
q-th of the kept mass.  At the first register whose columns collide, the
entries are scattered once into a block of the amplitudes still to be
measured, and each later pass is one real product on the real and imaginary
halves of that block.  Any other support, or one that collides at register
0, starts with a dense first pass built from the support (only its live
columns, when it is compact), so measuring a sample state never builds its
amplitude vector.
Among the learners only the SIS screening, whose operations act on
amplitudes, reads that vector; it is built and norm-checked on first read,
and the cross-checks read it too.  The rows agree with ``f @ block`` to
rounding.  The full transform, ``apply_qft_all`` (``apply_qft`` on every
register in turn) followed by ``measure_all``, is the reference that
``measure_qft_all`` reproduces, and stays for the cross-checks that need the
whole transformed state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .field import FieldParams, phase_table

MAX_AMPLITUDES = 2**22
NORM_TOL = 1e-9


class StateError(ValueError):
    """Ill-formed state or unsupported state operation."""


@lru_cache(maxsize=4)  # a q x q matrix is 64 MB at q = 2048
def qft_matrix(q: int) -> np.ndarray:
    """The read-only q x q unitary with entries omega^(j*k) / sqrt(q)."""
    idx = np.arange(q, dtype=np.int64)
    mat = phase_table(q, idx, idx) / np.sqrt(q)
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=4)  # 32 q^2 bytes, twice F: 128 MB at q = 2048
def _real_qft(q: int) -> np.ndarray:
    """F on a register as one real product: the read-only 2q x 2q matrix R with
    R @ [Re X; Im X] = Y, whose rows 2x and 2x+1 are Re (F @ X)[x] and Im (F @ X)[x].

    So ``(R @ [Re X; Im X]).reshape(q, -1)`` has row x = Re then Im of (F @ X)[x],
    and for a real X the product is ``R[:, :q] @ X``.
    """
    f = qft_matrix(q)
    mat = np.empty((q, 2, 2, q))
    mat[:, 0, 0], mat[:, 0, 1] = f.real, -f.imag
    mat[:, 1, 0], mat[:, 1, 1] = f.imag, f.real
    mat = mat.reshape(2 * q, 2 * q)
    mat.flags.writeable = False
    return mat


def checked_size(fp: FieldParams, num_registers: int) -> int:
    """q^num_registers, checked against the cap before any amplitude is allocated."""
    if num_registers < 1:
        raise StateError("at least one register required")
    size = fp.q**num_registers
    if size > MAX_AMPLITUDES:
        raise StateError(
            f"dense state of {fp.q}^{num_registers} amplitudes exceeds the 2**22 cap; use the analytic engine"
        )
    return size


class DenseState:
    """Unit vector over m registers of dimension q each.

    ``support`` is None, or the checked, read-only flat indices of the equal
    nonzero amplitudes of a state built by ``uniform``, whose amplitudes are
    read-only too.  Neither can be reassigned.
    """

    __slots__ = ("fp", "num_registers", "_amps", "_support")

    def __init__(self, fp: FieldParams, num_registers: int, amps: np.ndarray):
        size = checked_size(fp, num_registers)
        amps = np.ascontiguousarray(amps, dtype=np.complex128).reshape(-1)
        if amps.size != size:
            raise StateError(f"expected {size} amplitudes, got {amps.size}")
        _require_normalized(amps)
        self.fp = fp
        self.num_registers = num_registers
        self._amps = amps
        self._support = None

    @classmethod
    def uniform(cls, fp: FieldParams, num_registers: int, flat) -> "DenseState":
        """Equal amplitudes on the distinct flat basis indices ``flat``, which become the support.

        The support must be a non-empty 1-d integer array with every index in
        [0, q^m); it is kept read-only, as int64.  Only the support is kept:
        ``measure_qft_all`` reads it alone, and the amplitude vector is built
        (and norm-checked) only when something reads ``amps``.  A repeated
        index fails the norm check there or in ``measure_qft_all``.
        """
        size = checked_size(fp, num_registers)
        flat = np.asarray(flat)
        if flat.ndim != 1 or flat.size == 0:
            raise StateError(f"a support is a non-empty 1-d array of flat indices, got shape {flat.shape}")
        if flat.dtype.kind not in "iu":
            raise StateError(f"support indices must be integers, got dtype {flat.dtype}")
        flat = flat.astype(np.int64, copy=False)
        # one reduction checks both ends: a negative index reads as 2**63 or more unsigned
        if flat.view(np.uint64).max() >= size:
            raise StateError(f"support index outside [0, {size})")
        flat.setflags(write=False)
        state = cls.__new__(cls)
        state.fp = fp
        state.num_registers = num_registers
        state._amps = None
        state._support = flat
        return state

    @property
    def support(self) -> np.ndarray | None:
        return self._support

    @property
    def amps(self) -> np.ndarray:
        if self._amps is None:
            amps = np.zeros(self.fp.q**self.num_registers, dtype=np.complex128)
            amps[self._support] = 1.0 / math.sqrt(self._support.size)
            amps.setflags(write=False)
            _require_normalized(amps)
            self._amps = amps
        return self._amps

    def _check_register(self, register: int) -> None:
        if not 0 <= register < self.num_registers:
            raise StateError(f"register index {register} out of range [0, {self.num_registers})")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.fp.q,) * self.num_registers

    def _grid(self) -> np.ndarray:
        return self.amps.reshape(self.shape)

    def probabilities(self) -> np.ndarray:
        probs = np.square(self.amps.real)
        probs += np.square(self.amps.imag)
        return probs

    def apply_qft(self, register: int) -> "DenseState":
        """|j> -> (1/sqrt(q)) sum_k omega^(jk) |k> on one register."""
        self._check_register(register)
        out = np.tensordot(qft_matrix(self.fp.q), self._grid(), axes=([1], [register]))
        out = np.moveaxis(out, 0, register)
        return DenseState(self.fp, self.num_registers, out)

    def apply_qft_all(self) -> "DenseState":
        """QFT on every register: ``apply_qft`` on each in turn."""
        state = self
        for register in range(self.num_registers):
            state = state.apply_qft(register)
        return state

    def _first_pass(self, split: tuple | None = None) -> tuple:
        """(live, rows): F applied to register 0, as the real 2q x k array of ``_real_qft``.

        A state built by ``uniform`` builds its real block from the support.
        When at most a q-th of the columns hold amplitude, the block keeps
        only those, the sorted ``live`` columns of the support's ``_split``
        (``split``, when the caller has it); else ``live`` is None.  Entries
        sharing a column merge, and a repeated support index leaves the
        block's mass below 1, which the caller's norm check catches.  Any
        other state transforms [Re; Im] of its amplitudes.  Reshaped to q
        rows, row x of ``rows`` is Re then Im of (F @ block)[x].
        """
        q = self.fp.q
        step = _real_qft(q)
        support = self._support
        if support is None:
            amps = self.amps.reshape(q, -1)
            return None, step @ np.concatenate((amps.real, amps.imag))
        columns = q ** (self.num_registers - 1)
        value = 1.0 / math.sqrt(support.size)
        if support.size * q <= columns:
            row, column, mask = split or _split(support, columns)
            live = mask.nonzero()[0]
            block = np.zeros((q, live.size))
            block[row, live.searchsorted(column)] = value
        else:
            live, block = None, np.zeros(q * columns)
            block[support] = value
            block = block.reshape(q, columns)
        return live, step[:, :q] @ block  # the block's imaginary half is zero

    def measure_qft_all(self, rng: np.random.Generator) -> tuple[int, ...]:
        """The outcome of ``apply_qft_all().measure_all(rng)``, from the same single uniform.

        Registers are sampled in order, 0 (most significant) first.  F is
        applied to the current register only, with the later registers still
        untransformed: their transforms are unitary, so the row sums of
        |amplitude|^2 are this register's marginal.  The inverse-CDF target
        u * total picks row x, the mass of the rows before x is subtracted
        from the target, and the next register continues on row x alone.

        A state built by ``uniform`` whose support fills at most a q-th of
        register 0's columns is measured on its (index, value) entries while
        their columns after the current register stay distinct (``_split``).
        Such a support pass is a gather: F on register r maps an entry
        (row, column) to F[x, row] * value at column in row x, and as no two
        entries share a column, every row holds exactly a q-th of the kept
        mass.  At the first register whose columns collide, the entries are
        scattered once into the [Re; Im] block of the amplitudes still to be
        measured, and the dense passes continue from it.  Each dense pass is
        one real product: a block X is held as [Re X; Im X], ``_real_qft(q)``
        applies F to it, and row x of the result is the next register's
        block in the same form.  Any other state starts with a dense pass
        (``_first_pass``), whose total is the state's norm check; a support
        pass's entries are distinct indices, so their total is exact.  The
        rows agree with ``f @ block`` to rounding, and the CDF is summed in
        another order than the reference's, so the two differ only when u
        falls within rounding error of a boundary.
        """
        q, m = self.fp.q, self.num_registers
        index, split, live, outcome = self._support, None, None, []
        if index is not None and index.size * q <= q ** (m - 1):
            value = 1.0 / math.sqrt(index.size)
            # the support passes; more entries than columns always share one
            while index.size <= (columns := q ** (m - 1 - len(outcome))):
                split = _split(index, columns)
                if np.count_nonzero(split[2]) < index.size:
                    break
                row, index, _ = split
                denominator = q ** (len(outcome) + 1)  # r passes keep mass q^-r, a q-th of it per row
                cdf = [x / denominator for x in range(1, q + 1)]
                if not outcome:
                    target = rng.random()  # times cdf[-1] = 1.0
                x = min(bisect_right(cdf, target), q - 1)
                if x:
                    target -= cdf[x - 1]
                outcome.append(x)
                value = qft_matrix(q)[x].take(row) * value
        step, start = _real_qft(q), len(outcome)
        if start:  # the columns collide: scatter the entries once, into [Re; Im]
            kept = np.zeros(q ** (m - start), dtype=np.complex128)
            kept[index] = value
            kept = np.concatenate((kept.real, kept.imag))
        else:
            live, rows = self._first_pass(split)
            rows = rows.reshape(q, -1)
            cdf = list(accumulate(np.vecdot(rows, rows).tolist()))  # cumsum's sums, as Python floats
            if abs(cdf[-1] - 1.0) > NORM_TOL:
                raise StateError(f"norm not preserved: sum |amp|^2 = {cdf[-1]!r}")
            target = rng.random() * cdf[-1]
        for register in range(start, m):
            if register:
                rows = (step @ kept.reshape(2 * q, -1)).reshape(q, -1)
                cdf = list(accumulate(np.vecdot(rows, rows).tolist()))
            # rounding can leave the target past this row's mass; clamp as weighted_index does
            x = min(bisect_right(cdf, target), q - 1)
            if x:
                target -= cdf[x - 1]
            outcome.append(x)
            kept = rows[x]
            if live is not None:  # scatter Re then Im over the live columns into a zeroed [Re; Im]
                columns = q ** (m - 1)
                kept = np.zeros(2 * columns)
                kept[np.concatenate((live, live + columns))] = rows[x]
                live = rows = None  # the first pass's rows are not held with the next pass's
        return tuple(outcome)

    def apply_add_multiple(self, source: int, target: int, factor: int) -> "DenseState":
        """Basis permutation |.., a_src, .., y_tgt, ..> -> |.., a_src, .., y + factor*a_src, ..>.

        One gather: the amplitude at y in the target register is read from
        y - factor*a_src, through a broadcast open grid of register values.
        """
        self._check_register(source)
        self._check_register(target)
        if source == target:
            raise StateError("source and target registers must differ")
        q = self.fp.q
        index = list(np.indices(self.shape, sparse=True))
        index[target] = (index[target] - (factor % q) * index[source]) % q
        return DenseState(self.fp, self.num_registers, self._grid()[tuple(index)])

    def register_marginal(self, register: int) -> np.ndarray:
        """Exact outcome distribution of one register."""
        self._check_register(register)
        marginal = self.probabilities().reshape(self.shape)
        axes = tuple(i for i in range(self.num_registers) if i != register)
        if axes:
            marginal = marginal.sum(axis=axes)
        return marginal

    def measure_all(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Sample a full computational-basis outcome from |amplitude|^2."""
        idx = weighted_index(self.probabilities(), rng)
        return tuple(int(x) for x in np.unravel_index(idx, self.shape))


def _split(index: np.ndarray, columns: int) -> tuple:
    """(row, column, mask): each flat index's row and column over ``columns`` columns, and
    the mask of the columns they fill, which has as many set as there are indices iff no two
    share a column."""
    row, column = np.divmod(index, columns)
    mask = np.zeros(columns, dtype=bool)
    mask[column] = True
    return row, column, mask


def _require_normalized(amps: np.ndarray) -> None:
    norm2 = float(np.vdot(amps, amps).real)
    if abs(norm2 - 1.0) > NORM_TOL:
        raise StateError(f"norm not preserved: sum |amp|^2 = {norm2!r}")


def weighted_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Index i drawn with probability weights[i] / sum(weights); leaves weights unchanged."""
    cdf = np.cumsum(weights)
    return min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), weights.size - 1)
