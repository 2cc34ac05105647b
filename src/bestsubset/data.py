"""Dataset container, CSV I/O, and the sqrt(n)-norm standardization contract.

Every solver in this package assumes a design matrix whose columns have been
centered and rescaled to Euclidean norm sqrt(n).  For the linear family the
response is mean-centered as well, which removes the intercept from the
optimization; logistic models keep an explicit unpenalized intercept and Cox
models have none.

The two argument rules live here, below every other module: :func:`as_size`
checks a size and :func:`as_set` an index set, for the generator and the
solvers alike (``families`` re-exports both).
"""

import csv
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


def _frozen_array(values, dtype=float, order="K"):
    arr = np.array(values, dtype=dtype, order=order)
    arr.setflags(write=False)
    return arr


def column_norms(X: np.ndarray, per: float = 1.0) -> np.ndarray:
    """Euclidean norm of each column of ``X`` over ``per``, from 512-column blocks.

    No n x p squared copy is made; the axis-0 sum adds rows in the same
    order whatever the block width.  A column whose result overflows is
    divided by its largest magnitude first, so a result in the float range
    (always, with ``per`` sqrt(n)) is finite; other columns keep these bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq_sums = [(X[:, lo : lo + 512] ** 2).sum(axis=0) for lo in range(0, X.shape[1], 512)]
        norms = np.sqrt(np.concatenate(sq_sums)) / per
        for j in np.flatnonzero(np.isinf(norms)):
            top = np.abs(X[:, j]).max()
            norms[j] = top * (np.sqrt(((X[:, j] / top) ** 2).sum()) / per)
    return norms


def as_size(value, name: str, low: int, high: float) -> int:
    """``value`` as an int in [low, high], else a ValueError naming ``name``.

    Python and numpy integers pass, so nothing is truncated; a float or a
    bool is refused, as a flag is not a size.
    """
    try:
        size = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        size = None
    if size is None or not low <= size <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return size


def as_set(values, p: int) -> tuple[int, ...]:
    """``values`` as sorted distinct int indices in [0, p), else a ValueError.

    Integers pass as in :func:`as_size`; a bool is dropped, so it fails the
    count like a duplicate.  The range is checked on the sorted ends.
    """
    values = tuple(values)
    try:
        active = sorted({operator.index(j) for j in values if not isinstance(j, bool)})
    except TypeError:  # a float or a non-number
        active = []
    if len(active) != len(values) or (active and (active[0] < 0 or active[-1] >= p)):
        raise ValueError(f"indices must be distinct integers in [0, {p}), got {values}")
    return tuple(active)


@dataclass(frozen=True, eq=False)
class _Vector:
    """A response held as one read-only 1-D vector ``y``.

    A subclass checks the values in ``_check``; the shape error names the
    subclass.
    """

    columns: ClassVar[tuple[str, ...]] = ("y",)
    y: np.ndarray

    def __post_init__(self):
        y = _frozen_array(self.y)
        if y.ndim != 1:
            raise ValueError(f"{type(self).__name__.lower()} response must be a 1-D vector")
        self._check(y)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.y.shape[0]


@dataclass(frozen=True, eq=False)
class Continuous(_Vector):
    """Real-valued response vector."""

    @staticmethod
    def _check(y):
        if not np.all(np.isfinite(y)):
            raise ValueError("continuous response contains non-finite values")


@dataclass(frozen=True, eq=False)
class Binary(_Vector):
    """0/1 response vector."""

    @staticmethod
    def _check(y):
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("binary response out of range: values must be 0 or 1")


@dataclass(frozen=True, eq=False)
class Survival:
    """Right-censored survival response: observed time plus event indicator.

    ``status`` is 1 where the event was observed and 0 where the observation
    was censored.  Times must be strictly positive and at least one event is
    required, otherwise the partial likelihood is vacuous.  The risk-set
    layout the cox family reads is derived from these two vectors once per
    standardized dataset, by ``families.Problem``.
    """

    columns: ClassVar[tuple[str, ...]] = ("time", "status")
    time: np.ndarray
    status: np.ndarray

    def __post_init__(self):
        time = _frozen_array(self.time)
        status = _frozen_array(self.status)
        if time.ndim != 1 or status.ndim != 1 or time.shape != status.shape:
            raise ValueError("time and status must be 1-D vectors of equal length")
        if not np.all(np.isfinite(time)) or np.any(time <= 0):
            raise ValueError("survival times must be positive and finite")
        if not np.all(np.isin(status, (0.0, 1.0))):
            raise ValueError("status must be 0 (censored) or 1 (event)")
        if not np.any(status == 1.0):
            raise ValueError("no events: all observations are censored")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "status", status)

    def __len__(self):
        return self.time.shape[0]


# The response type each family fits.  ``columns`` names a type's CSV
# columns, which are also its constructor arguments, in order.
RESPONSES = {"gaussian": Continuous, "binomial": Binary, "cox": Survival}
FAMILIES = tuple(RESPONSES)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A dense design matrix with a typed response.

    Rows are observations, columns are predictors.  Instances are immutable
    after construction (arrays are marked read-only) and safe to share
    across threads.  ``X`` is copied unless its maker hands it over: a
    read-only, C-ordered float array that owns its memory is kept as is,
    which is how the generator and :func:`standardize` pass on the one
    n x p array they write.  Its maker must not make it writable again.
    The response arrays are always copied.
    """

    X: np.ndarray
    response: Continuous | Binary | Survival
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        # C order whatever the caller's, so no fit's bits depend on it; a
        # read-only array that owns its memory is taken over when it fits
        X = self.X
        kept = isinstance(X, np.ndarray) and X.base is None and not X.flags.writeable
        X = np.asarray(X, dtype=float, order="C") if kept else np.array(X, dtype=float, order="C")
        X.setflags(write=False)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        n, p = X.shape
        if n < 2:
            raise ValueError("need at least 2 observations")
        if p < 1:
            raise ValueError("need at least 1 predictor")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        if len(self.response) != n:
            raise ValueError(
                f"response length {len(self.response)} does not match n={n}"
            )
        if self.column_names is not None:
            names = tuple(str(c) for c in self.column_names)
            if len(names) != p:
                raise ValueError("column_names length does not match p")
            object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def names(self) -> tuple[str, ...]:
        """Column names, defaulting to X1..Xp (1-based) when absent."""
        if self.column_names is not None:
            return self.column_names
        return tuple(f"X{j + 1}" for j in range(self.p))


@dataclass(frozen=True, eq=False)
class StandardizedDataset:
    """A dataset whose columns have sqrt(n) norm, plus the affine map back.

    ``column_centers`` and ``column_scales`` reconstruct the original design
    (X_orig = X_std * scales + centers); ``response_center`` is the response
    mean removed for the gaussian family and 0 otherwise.
    """

    dataset: Dataset
    column_centers: np.ndarray
    column_scales: np.ndarray
    response_center: float
    # the solvers' per-dataset work, made on first use (``families.problem``)
    _problem: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "column_centers", _frozen_array(self.column_centers))
        object.__setattr__(self, "column_scales", _frozen_array(self.column_scales))


def standardize(d: Dataset) -> StandardizedDataset:
    """Center each column and rescale it to Euclidean norm sqrt(n).

    For a continuous response the mean is removed as well, so the fitted
    model needs no intercept.  Constant columns are rejected (silently
    dropping them would desynchronize reported indices from the user's
    data).  The centred design is the one n x p array written: it is
    scaled in place and handed to the new dataset, which checks it once
    for the values that centring can overflow near the float limit.  A
    column whose sum of squares, or even whose norm, overflows still gets
    sqrt(n) norm (see :func:`column_norms`).
    """
    response = d.response
    response_center = 0.0
    if isinstance(response, Continuous):
        response_center = float(response.y.mean())
        response = Continuous(response.y - response_center)

    centers = d.X.mean(axis=0)
    X = d.X - centers
    scales = column_norms(X, math.sqrt(d.n))
    if np.any(scales == 0.0):
        j = int(np.flatnonzero(scales == 0.0)[0])
        raise ValueError(
            f"constant column {d.names()[j]!r} (index {j}): zero variance"
        )
    X /= scales
    X.setflags(write=False)
    transformed = Dataset(X, response, d.column_names)
    return StandardizedDataset(transformed, centers, scales, response_center)


def destandardize_coefficients(
    beta_std: np.ndarray, meta: StandardizedDataset, intercept_std: float = 0.0
):
    """Map standardized-scale coefficients back to the original scale.

    Returns ``(intercept, beta_orig)`` such that the linear predictor
    ``intercept + X_orig @ beta_orig`` equals
    ``response_center + intercept_std + X_std @ beta_std`` exactly.
    """
    beta_std = np.asarray(beta_std, dtype=float)
    if beta_std.shape != (meta.dataset.p,):
        raise ValueError("beta_std length does not match p")
    beta_orig = beta_std / meta.column_scales
    intercept = (
        meta.response_center + intercept_std - float(meta.column_centers @ beta_orig)
    )
    return intercept, beta_orig


def _float_row(i, row, names) -> list[float]:
    """Data row ``i`` as floats, or the error for its field count or first bad cell."""
    if len(row) != len(names):  # checked first: a 1-field row would broadcast
        raise ValueError(f"row {i} has {len(row)} fields, expected {len(names)}")
    try:
        return list(map(float, row))
    except ValueError:
        for cell, column in zip(row, names):
            try:
                float(cell)
            except ValueError:
                text = cell.strip()
                what = f"non-numeric value {text!r}" if text else "missing value"
                raise ValueError(f"{what} at row {i}, column {column!r}") from None


def _refuse_repeats(names, where) -> None:
    repeated = [c for c, count in Counter(names).items() if count > 1]
    if repeated:
        raise ValueError(f"column {repeated[0]!r} appears more than once in {where}")


def _read_rows(fh, path, response, n_resp, header):
    """``(names, parsed)``: the column names and the rows as one float array."""
    rows = (row for row in csv.reader(fh) if row)
    first = next(rows, None)
    if first is None:
        raise ValueError(f"empty file: {path}")
    if header:
        names = [c.strip() for c in first]
        _refuse_repeats(names, "the header")
        for col in response:
            if col not in names:
                raise ValueError(f"response column {col!r} not found in header")
    else:
        if len(first) < n_resp + 1:
            raise ValueError("too few columns for predictors plus response")
        names = [f"X{j + 1}" for j in range(len(first) - n_resp)] + list(response)
        rows = itertools.chain([first], rows)
    # each row goes straight into the array as it is read, so no n x p
    # list of cell strings is held; the first bad row stops the read
    floats = (_float_row(i, row, names) for i, row in enumerate(rows, start=1))
    parsed = np.fromiter(floats, (float, (len(names),)))
    return names, parsed


def _located_decode_error(path, exc: UnicodeDecodeError) -> Exception:
    """``exc`` restated with the file's line and byte offset of the first bad byte.

    The reader decodes in chunks, so ``exc.start`` is relative to one; this
    decodes the whole file again, which only the error path pays for.  A
    file that cannot be read twice (a consumed stdin) keeps ``exc``.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        raw.decode(exc.encoding)
    except UnicodeDecodeError as full:
        line = raw.count(b"\n", 0, full.start) + 1
        return ValueError(
            f"{full.encoding!r} codec can't decode byte 0x{raw[full.start]:02x} "
            f"at line {line}, byte offset {full.start} of {path}: {full.reason}"
        )
    except OSError:
        pass
    return exc


def load_csv(path, family: str, response=None, header: bool = True) -> Dataset:
    """Read a comma-separated file into a validated :class:`Dataset`.

    ``response`` names the response column (a pair ``(time, status)`` for the
    cox family); it defaults to the response type's ``columns``.  With
    ``header=False`` all columns are unnamed and the response is taken from
    the last column (last two for cox); predictors are then named X1..Xp,
    and naming a ``response`` is an error.  A header may not repeat a name.
    The file is read as UTF-8 after an optional byte-order mark; one that does
    not decode is refused naming its line and byte offset of the first bad byte.
    """
    if family not in RESPONSES:
        raise ValueError(f"unknown family {family!r}")
    kind = RESPONSES[family]
    n_resp = len(kind.columns)
    if response is None:
        response = kind.columns
    elif not header:
        raise ValueError("response columns can only be named with a header")
    elif isinstance(response, str):
        response = tuple(part.strip() for part in response.split(","))
    else:
        response = tuple(response)
    if len(response) != n_resp:
        raise ValueError(
            f"family {family!r} needs {n_resp} response column(s), got {len(response)}"
        )
    _refuse_repeats(response, "the response")

    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}") from None
    with fh:
        try:
            names, parsed = _read_rows(fh, path, response, n_resp, header)
        except UnicodeDecodeError as exc:
            raise _located_decode_error(path, exc) from None

    resp_idx = [names.index(c) for c in response]
    x_idx = [j for j in range(len(names)) if j not in resp_idx]
    if not x_idx:
        raise ValueError("no predictor columns left after removing the response")
    resp = kind(*parsed[:, resp_idx].T)
    return Dataset(parsed[:, x_idx], resp, [names[j] for j in x_idx])


def save_csv(d: Dataset, path) -> None:
    """Write a dataset back to CSV; values use repr so reloads are bit-exact.

    A header that :func:`load_csv` would refuse, naming a column twice
    after stripping spaces, is refused before the file is opened.
    """
    header = list(d.names()) + list(d.response.columns)
    _refuse_repeats([c.strip() for c in header], "the header")
    responses = np.column_stack([getattr(d.response, c) for c in d.response.columns])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        # the bytes csv.writer would write: a float's repr never needs quoting
        for x, response in zip(d.X, responses.tolist()):
            fh.write(",".join(map(repr, x.tolist() + response)) + "\r\n")
