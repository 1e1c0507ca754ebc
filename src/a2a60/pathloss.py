"""Closed-form path-loss laws and shadow-fading sampling.

Two single-slope laws in log-distance: the close-in (CI) form, anchored to
the free-space loss at a 1 m reference distance, and the floating-intercept
(FI) form, where the intercept is a free fit parameter. The CI law is the FI
law with its intercept fixed, so one evaluator, `mean_pl`, serves both. Both
carry a zero-mean Gaussian shadowing term in the dB domain. Both evaluators,
`mean_pl` and `free_space_pl`, take a float distance or a 1-D array of them.
"""

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from inspect import Parameter, Signature

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
REFERENCE_DISTANCE_M = 1.0


def _check_finite(name: str, value, *, gt=-math.inf, ge=-math.inf, le=math.inf,
                  whole: bool = False, unit: str = "", note: str = "") -> None:
    """The one range check of the package: raise a ValueError naming `name` unless
    `value` is finite, above `gt`, within [`ge`, `le`] and, if `whole`, a whole number.
    A 1-D array (a column, whole or not by its dtype) passes if its extremes (NaN among
    them) do, as every valid range is an interval. `unit` and `note` shape the message."""
    if isinstance(value, np.ndarray):
        for extreme in (np.min, np.max) if value.size else ():
            _check_finite(name, extreme(value).item(), gt=gt, ge=ge, le=le, unit=unit, note=note)
        return
    # NaN fails every comparison; math.isfinite is avoided because it overflows on huge ints
    if gt < value < math.inf and ge <= value <= le and not (whole and value % 1):
        return
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    if whole and value % 1:
        raise ValueError(f"{name} must be a whole number, got {value}")
    if isinstance(value, int) and len(digits := str(abs(value))) > 17:  # d.ddde+N; float() overflows
        value = f"{'-' * (value < 0)}{digits[0]}.{digits[1:17]}e+{len(digits) - 1}"
    unit = f" {unit}" if unit else ""
    bounds = " and ".join(f"{op} {bound:.15g}{unit}"
                          for op, bound in ((">", gt), (">=", ge), ("<=", le))
                          if math.isfinite(bound))
    raise ValueError(f"{name} must be {bounds}{note}, got {value}{unit}")


class _FieldSignature:
    """A record class's `__signature__` from its fields, built on first use; `_Record` has none."""
    def __get__(self, record, cls):
        cls.__signature__ = Signature(
            [Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                       default=Parameter.empty if f.default is MISSING else f.default)
             for f in cls.__dataclass_fields__.values()], return_annotation=None)
        return cls.__signature__


class _Record:
    """Frozen-dataclass methods, defined once: no record class's dataclass build compiles any."""
    __slots__ = ()
    __signature__ = _FieldSignature()

    def __init__(self, *args, **kwargs):
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        self.__setstate__(bound.arguments.values())  # in field order
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __repr__(self):
        values = (f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{type(self).__qualname__}({', '.join(values)})"

    def __eq__(self, other):
        same = type(other) is type(self)
        return self.__getstate__() == other.__getstate__() if same else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__getstate__()))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return [getattr(self, f.name) for f in fields(self)]

    def __setstate__(self, state):
        for f, value in zip(fields(self), state):
            object.__setattr__(self, f.name, value)


def _check_model(model) -> None:
    """Constructor check shared by both laws: finite fields, nonnegative sigma."""
    for field in fields(model):
        _check_finite(field.name, getattr(model, field.name))
    _check_finite("sigma_db", model.sigma_db, ge=0.0, unit="dB")


@dataclass(init=False, repr=False, eq=False)
class CiModel(_Record):
    """Close-in path-loss law: Friis intercept at 1 m plus a fitted exponent.

    The intercept is never stored; it is always recomputed from the carrier
    frequency, which is what anchors the model to free-space physics at the
    reference distance.
    """

    freq_ghz: float
    ple: float
    sigma_db: float = 0.0

    def __post_init__(self):
        _check_model(self)
        _check_finite("freq_ghz", self.freq_ghz, gt=0.0, unit="GHz")

    @property
    def intercept_db(self) -> float:
        """The 1 m Friis loss at this carrier: the FI intercept the CI law fixes."""
        return friis_reference_pl(self.freq_ghz)


@dataclass(init=False, repr=False, eq=False)
class FiModel(_Record):
    """Floating-intercept path-loss law: intercept and exponent both fitted.

    For single-frequency data the frequency-dependent terms of the full
    alpha-beta-gamma family collapse into `intercept_db`.
    """

    intercept_db: float
    ple: float
    sigma_db: float = 0.0

    __post_init__ = _check_model


def _log10(x):
    """math.log10 of a float, or of each value of an array: np.log10 differs
    from it in the last bit for some distances, and output is pinned to it."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.log10, x.tolist()), float, x.size)
    return math.log10(x)


def friis_reference_pl(freq_ghz: float) -> float:
    """Free-space path loss at the 1 m reference distance, in dB."""
    _check_finite("freq_ghz", freq_ghz, gt=0.0, unit="GHz")
    return 20.0 * math.log10(4.0 * math.pi * freq_ghz * 1e9 / SPEED_OF_LIGHT_M_S)


def mean_pl(model: CiModel | FiModel, distance_m):
    """Mean path loss at `distance_m` (shadowing excluded), in dB, under either
    law: the intercept at 1 m plus 10*ple dB per decade of distance."""
    if not isinstance(model, (CiModel, FiModel)):
        raise TypeError(f"expected CiModel or FiModel, got {type(model).__name__}")
    _check_finite("distance_m", distance_m, ge=REFERENCE_DISTANCE_M, unit="m",
                  note=" (the reference distance)")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, naming the distance
        pl = model.intercept_db + 10.0 * model.ple * _log10(distance_m)
    return _check_result(pl, distance_m, f"mean path loss of {model}")


def _check_result(pl, distance_m, what: str):
    """`pl`, the loss at `distance_m`; if not finite, a ValueError naming `what` and where."""
    overflow = np.flatnonzero(~np.isfinite(pl))
    if overflow.size:
        distance_m = np.ravel(distance_m)[overflow[0]].item()
        raise ValueError(f"{what} at distance_m={distance_m} m is not finite")
    return pl


def free_space_pl(freq_ghz: float, distance_m):
    """Friis free-space path loss in dB; valid for any positive distance."""
    _check_finite("distance_m", distance_m, gt=0.0, unit="m")
    return friis_reference_pl(freq_ghz) + 20.0 * _log10(distance_m)


def sample_pl(model: CiModel | FiModel, distance_m: float, n: int, seed: int) -> np.ndarray:
    """Draw `n` shadowed path-loss values around the model mean, in dB.

    Shadowing is i.i.d. Gaussian(0, sigma_db^2) from a PCG64 generator owned
    by this call and seeded with `seed`, so identical arguments always return
    bit-identical output.
    """
    return next(_draw_blocks(model, distance_m, n, seed), np.empty(0))


def _draw_blocks(model: CiModel | FiModel, distance_m: float, n: int, seed: int, block=None):
    """The draws of `sample_pl` in checked arrays of up to `block` (default all) values."""
    _check_finite("n", n, ge=0, whole=True)
    _check_finite("seed", seed, ge=0, whole=True)
    n, seed, mu = int(n), int(seed), mean_pl(model, distance_m)
    block = block or max(n, 1)
    rng = np.random.default_rng(seed)  # drawn block by block, the same floats as at once
    for start in range(0, n, block):
        values = mu + rng.normal(0.0, model.sigma_db, size=min(block, n - start))
        # the extremes (NaN among them) show any draw that is not finite, with no array per draw
        if not -math.inf < values.min() <= values.max() < math.inf:
            raise ValueError(f"a draw of {model} at distance_m={distance_m} m is not finite")
        yield values
