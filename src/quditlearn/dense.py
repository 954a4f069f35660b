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
transformed state; its docstring gives the method.  A sample state built by
``DenseState.uniform`` holds only its support, the checked, read-only flat
indices of its equal nonzero amplitudes.  Among the learners only the SIS
screening, whose operations act on amplitudes, reads the amplitude vector;
it is built and norm-checked on first read, and the cross-checks read it
too.  The full transform, ``apply_qft_all`` followed by ``measure_all``, is
the reference that ``measure_qft_all`` reproduces.
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

    def measure_qft_all(self, rng: np.random.Generator) -> tuple[int, ...]:
        """The outcome of ``apply_qft_all().measure_all(rng)``, from the same single uniform.

        Registers are sampled in order, 0 (most significant) first.  F is
        applied to the current register only, with the later registers still
        untransformed: their transforms are unitary, so the row sums of
        |amplitude|^2 are this register's marginal.  The inverse-CDF target
        u * total picks row x, the mass of the rows before x is subtracted
        from the target, and the next register continues on row x alone.

        A state built by ``uniform`` is measured in one loop over registers,
        which holds the kept slice either as (index, value) entries, starting
        from the support, or as a dense row.  Entries are split into each
        flat index's row (this register's value) and column (the registers
        after it) while they number at most the register's columns; at
        register 0 only while they fill at most a q-th of them, so a
        full-space LWE support goes straight to a full block.  When no two of
        them share a column, the register is a gather: F maps an entry (row,
        column) to F[x, row] * value at column in row x, and as no two
        entries interfere, every row holds exactly a q-th of the kept mass.
        Otherwise they are scattered into one block, which keeps only the
        live columns when those number at most a q-th of the register's
        columns, and every column else.  ``_real_qft(q)`` applies F to the
        block's real halves [Re X; Im X] (a real block, at register 0, has
        no Im half), and row x of the product is Re then Im of (F @ X)[x].
        The chosen row of a live block is entries again, over its live
        columns; the chosen row of a full block is a dense row, to which F is
        applied in the same way at each later register.  The kept mass is
        exact while every register was a gather; a block at register 0 sums
        the state's mass, which is its norm check.  The rows agree with ``f
        @ block`` to rounding, and the CDF is summed in another order than
        the reference's, so the two differ only when u falls within rounding
        error of a boundary.  A state that holds amplitudes and no support,
        which no learner builds, is measured by the reference itself.
        """
        q, m, index = self.fp.q, self.num_registers, self._support
        if index is None:
            return self.apply_qft_all().measure_all(rng)
        value, kept, outcome, step = np.float64(1.0 / math.sqrt(index.size)), None, [], _real_qft(q)
        denominator = 1  # the kept mass is 1 / denominator, exact while every register was a gather
        for register in range(m):
            live, distinct = None, False
            if kept is not None:
                rows = kept.reshape(2 * q, -1)
            else:
                columns = q ** (m - 1 - register)
                # more entries than columns always share one, and at register 0 more than a q-th of them take a block
                if index.size <= (columns if register else columns // q):
                    row, column = np.divmod(index, columns)
                    mask = np.zeros(columns, dtype=bool)
                    mask[column] = True
                    count = np.count_nonzero(mask)
                    distinct = count == index.size
                    if not distinct and count * q <= columns:
                        live = mask.nonzero()[0]
                # a block, rebound to its product below; a repeated index merges in it, so the norm check fails
                if live is not None:
                    rows = np.zeros((q, live.size), value.dtype)
                    rows[row, live.searchsorted(column)] = value
                elif not distinct:
                    rows = np.zeros((q, columns), value.dtype)
                    rows.reshape(-1)[index] = value
                if not distinct and value.dtype.kind == "c":
                    rows = np.concatenate((rows.real, rows.imag))
            if distinct:
                denominator *= q
                cdf = [x / denominator for x in range(1, q + 1)]
            else:
                rows = ((step if len(rows) > q else step[:, :q]) @ rows).reshape(q, -1)  # a real block has no Im half
                masses = np.vecdot(rows, rows).tolist()
                cdf = list(accumulate(masses))  # cumsum's sums, as Python floats
            if not register:
                if abs(cdf[-1] - 1.0) > NORM_TOL:
                    raise StateError(f"norm not preserved: sum |amp|^2 = {cdf[-1]!r}")
                target = rng.random() * cdf[-1]
            # rounding can leave the target past this row's mass; clamp as weighted_index does
            x = min(bisect_right(cdf, target), q - 1)
            if x:
                target -= cdf[x - 1]
            outcome.append(x)
            if distinct:
                index, value = column, qft_matrix(q)[x].take(row) * value
            elif live is None:
                kept = rows[x]
            else:  # the chosen row, Re then Im over the live columns, is entries again
                index, value = live, rows[x].reshape(2, -1).T.copy().view(np.complex128).ravel()
                denominator = 1 / masses[x] if masses[x] else math.inf  # only the clamp picks a row with no mass
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


def _require_normalized(amps: np.ndarray) -> None:
    norm2 = float(np.vdot(amps, amps).real)
    if abs(norm2 - 1.0) > NORM_TOL:
        raise StateError(f"norm not preserved: sum |amp|^2 = {norm2!r}")


def weighted_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Index i drawn with probability weights[i] / sum(weights); leaves weights unchanged."""
    cdf = np.cumsum(weights)
    return min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), weights.size - 1)
