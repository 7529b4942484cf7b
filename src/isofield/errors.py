"""Exception types shared across the package, and the argument rules that raise them.

Every public call reads each argument through one of these rules once, where it enters;
private helpers check nothing. The README's table "Argument rules" lists them.
"""

import math
import sys

import numpy as np


class IsoFieldError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(IsoFieldError, ValueError):
    """A parameter lies outside its mathematical domain (exponents, dimensions)."""


class DomainError(IsoFieldError, ValueError):
    """A function argument is outside the supported domain beyond clamp tolerance."""


class UsageError(IsoFieldError, ValueError):
    """Inconsistent inputs: mismatched spaces, wrong lag domain, heterogeneous ensembles."""


class GeometryError(IsoFieldError):
    """Point-level geometry is not available for this space (octonionic plane)."""


class ModelError(IsoFieldError, ValueError):
    """A covariance model failed validation where a valid one is required."""


class NumericError(IsoFieldError, RuntimeError):
    """A numerical routine (such as an eigen solver) failed."""


class ModelFormatError(IsoFieldError, ValueError):
    """A model or realization document does not match the file schema."""


# The argument rules, and the lag domains the lag rules read

INTEGER_LAGS = "integers"
REAL_LAGS = "reals"
ZERO_LAG = "zero"  # a purely spatial model: lag 0 only

_INTS = (int, np.integer)  # and not bool, which Python counts as an int
_FLOAT_MAX = int(sys.float_info.max)
_WHOLE_NEEDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}

# The size cap: the 8-byte words (1 GiB) that a degree, quadrature order or count may ask one
# public call to hold in its largest array or table
MAX_SIZE = 1 << 27


def _sized(words: int, name: str) -> None:
    """The size cap: UsageError naming the argument when the array or table it sizes would
    hold more than MAX_SIZE words; checked where the argument enters, before it is built."""
    if words > MAX_SIZE:
        raise UsageError(f"{name} must be smaller: the call would hold more than the size cap "
                         f"of {MAX_SIZE} values")


def _shown(value, form=str) -> str:
    """form(value) for a message; Python prints no int past 4,300 digits, so such a value,
    or a tuple holding one, reads as its type."""
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _whole(value, name: str, low: int | None = 0) -> int:
    """The whole-number rule (degrees, truncations, quadrature orders, dimensions): value as an
    int. ParameterError naming it unless it is an int, a numpy integer or an integral float,
    never a bool, of at least low (None: no bound) and at most the largest float."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    ok = isinstance(value, _INTS) and not isinstance(value, bool)
    if ok and abs(value) > _FLOAT_MAX:
        raise ParameterError(f"{name} must fit in a float")
    if not ok or low is not None and value < low:
        raise ParameterError(f"{name} must be {_WHOLE_NEEDS[low]}, got {value}")
    return int(value)


def _count(value, name: str, low: int = 0, high: int | None = sys.maxsize) -> int:
    """The count rule (seeds, spawn keys, replicate and point counts, point indices):
    value as an int. UsageError naming it unless it is an int or a numpy integer, not a bool,
    of at least low and at most high (None for seeds and keys, which have no bound)."""
    ok = isinstance(value, _INTS) and not isinstance(value, bool)
    if ok and high is not None and value > high:
        raise UsageError(f"{name} must be at most {high}")
    if not ok or value < low:
        need = "a non-negative integer" if low == 0 else f"an integer of at least {low}"
        raise UsageError(f"{name} {_shown(value)} must be {need}")
    return int(value)


def _check_m(m) -> int:
    """The rule of m: m as an int. ParameterError unless it is an int or numpy integer (not a
    bool or a float) from 1 to sys.maxsize."""
    if not isinstance(m, _INTS) or isinstance(m, bool) or not 1 <= m <= sys.maxsize:
        raise ParameterError(f"m must be a positive integer up to sys.maxsize, got "
                             f"{_shown(m, repr)}")
    return int(m)


def _real(value, name: str, error: type = UsageError) -> float:
    """The real-number rule (lags, times, real parameters): value as a float; error naming it
    unless it defines __float__ or __index__, is no array of one or more dimensions, has no
    dtype or a boolean, integer or floating one, and fits in a float. float() reads str, every
    other bytes-like object and numpy text as text, which is not a real number."""
    if type(value) is float:  # the common case, already what the rule returns
        return value
    try:
        kind = np.dtype(getattr(value, "dtype", float)).kind
        if (kind not in "biuf" or getattr(value, "ndim", 0)
                or not (hasattr(type(value), "__float__") or hasattr(type(value), "__index__"))):
            raise TypeError
        return float(value)
    except OverflowError:
        raise error(f"{name} must fit in a float") from None
    except (TypeError, ValueError):
        raise error(f"{name} {_shown(value, repr)} must be a real number") from None


def _raw_bytes(value) -> bool:
    """value is raw bytes: bytes, a bytearray or a byte-format memoryview, which iterate as byte
    values and which numpy reads as an array of them."""
    return isinstance(value, (bytes, bytearray)) or (
        isinstance(value, memoryview) and value.format in ("B", "b", "c"))


def _holds_bytes(value) -> bool:
    """value is raw bytes, or a list or tuple that holds raw bytes at some depth."""
    return any(map(_holds_bytes, value)) if isinstance(value, (list, tuple)) else _raw_bytes(value)


def _reals(value, name: str) -> np.ndarray:
    """The real-array rule (distances): value as a float array. UsageError naming it unless numpy
    reads it as an array of booleans, integers or floats, or else each of its elements passes the
    real-number rule, and it neither is nor holds raw bytes (_raw_bytes); DomainError naming it
    unless every value is finite."""
    try:
        reals = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        raise UsageError(f"{name} must be a real number or an array of them") from None
    # numpy reads raw bytes as one-byte integers; nothing else it reads so is walked
    if reals.dtype.itemsize == 1 and reals.dtype.kind in "ui" and _holds_bytes(value):
        raise UsageError(f"{name} must be a real number or an array of them, not raw bytes")
    if reals.dtype.kind not in "biuf":  # text, bytes, complex, objects: each by _real
        reals = np.array([_real(v, name) for v in reals.ravel().tolist()]).reshape(reals.shape)
    reals = np.asarray(reals, dtype=float)
    if not np.isfinite(reals).all():
        raise DomainError(f"{name} must be finite distances, got {reals[~np.isfinite(reals)]}")
    return reals


def _require_lag(domain: str, t, noun: str = "lag") -> float:
    """The real-lag rule: t as a float; UsageError unless it is a real number, finite (noun
    names it if not) and a lag of the domain (_in_domain)."""
    t = _real(t, "lag")
    if not math.isfinite(t):
        raise UsageError(f"{noun} {t} is not finite")
    return _in_domain(domain, t)


def _in_domain(domain: str, t: float) -> float:
    """A finite float t; UsageError unless it is a lag of the domain: an integer on
    INTEGER_LAGS, 0 on ZERO_LAG."""
    if domain == INTEGER_LAGS and not t.is_integer():
        raise UsageError(f"lag {t} is not an integer but the model's temporal domain is Z")
    if domain == ZERO_LAG and t != 0.0:
        raise UsageError(f"lag {t} is not 0, and a purely spatial model is evaluated at lag 0 "
                         "only")
    return t


def _lag_list(lags, name: str, domain: str, noun: str = "lag") -> list[float]:
    """The lag-list rule: lags as a nonempty list of lags of the domain (_require_lag).
    UsageError naming the argument if it is empty, not iterable, or text or raw bytes
    (_raw_bytes), which iterate as characters or byte values."""
    try:
        if isinstance(lags, str) or _raw_bytes(lags):
            raise TypeError
        lags = list(lags)
    except TypeError:
        kind = type(lags).__name__
        raise UsageError(f"{name} must be a list of real numbers, not a {kind}") from None
    if not lags:
        raise UsageError(f"{name} must be nonempty")
    return [_require_lag(domain, t, noun) for t in lags]
