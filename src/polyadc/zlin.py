"""Exact integer vectors over named generators.

Vectors are indexed by generator names (strings) rather than bare
positions, because everything downstream (complexes, cell tables,
quotients) is built on named bases.  All arithmetic is exact.  Every stored
or intermediate coefficient is kept inside a checked 64-bit window so a
blow-up surfaces as :class:`CoefficientOverflow` instead of a silently huge
number that would mask a modelling mistake.

The matrix algebra (determinants, the Smith normal form, inverses,
quotients and monoid coordinates) is :mod:`polyadc.smith`, which only the
quotient path reads; its matrices are dense lists of rows, and a quotient
hands back its projection and section as columns of these vectors.  Its
public names are still served from here, and the first lookup of one
loads that module.
"""

from __future__ import annotations

from collections.abc import Mapping

INT64_MAX = 2**63 - 1

_setattr = object.__setattr__


class Record:
    """Base of the package's plain value and report records.

    A record lists its fields, in constructor order, in ``_fields``, which
    is also its ``__slots__`` unless it keeps other state.  It compares
    equal field by field, and only to a record of the very same class;
    hashes and prints as the tuple of its fields; copies and pickles
    through its constructor; and refuses assignment once built.  A mutable
    record puts ``object``'s ``__setattr__`` and ``__delattr__`` back and
    sets ``__hash__`` to None.
    """

    __slots__ = ()
    _fields = ()

    def _fill(self, *values):
        """Set the fields, in ``_fields`` order; for ``__init__``."""
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class CoefficientOverflow(Exception):
    """A coefficient left the checked 64-bit range."""

    code = "OVERFLOW"


class TorsionError(Exception):
    """A quotient that was expected to be free has a finite part."""

    code = "TORSION"


class AmbiguousCoordinates(Exception):
    """A vector admits more than one N-combination of the given generators."""

    code = "AMBIGUOUS"


def _ck(value):
    if value > INT64_MAX or value < -INT64_MAX:
        raise CoefficientOverflow(
            "coefficient %d exceeds the checked 64-bit range" % value
        )
    return value


class IntVector:
    """Element of the free abelian group on named generators.

    Immutable.  Zero coefficients are never stored, so ``==`` and ``hash``
    agree with mathematical equality.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries=()):
        if isinstance(entries, IntVector):
            self._entries = entries._entries
            self._hash = entries._hash
            return
        if isinstance(entries, dict) or isinstance(entries, Mapping):
            entries = entries.items()
        data = {}
        for name, coeff in entries:
            if not isinstance(name, str):
                raise TypeError("generator names must be strings, got %r" % (name,))
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError("coefficients must be ints, got %r" % (coeff,))
            data[name] = data.get(name, 0) + coeff
        self._entries = {k: v if -INT64_MAX <= v <= INT64_MAX else _ck(v)
                         for k, v in data.items() if v}
        self._hash = None

    @classmethod
    def _of(cls, data: dict) -> "IntVector":
        """A vector from a dict already known to map names to ints: zeros
        are dropped and the range is checked, the type checks are not.
        Each value is compared with the window inline, in insertion order,
        and only the first one outside it reaches ``_ck``, which raises; so
        an error names the first value out of range, as a call of ``_ck``
        on every value would.  :meth:`_trusted` skips the range check too.
        """
        vec = object.__new__(cls)
        vec._entries = {k: v if -INT64_MAX <= v <= INT64_MAX else _ck(v)
                        for k, v in data.items() if v}
        vec._hash = None
        return vec

    @classmethod
    def _trusted(cls, entries: dict) -> "IntVector":
        """The vector on ``entries`` as it stands: a dict already known to
        map names to nonzero ints inside the checked range."""
        vec = object.__new__(cls)
        vec._entries = entries
        vec._hash = None
        return vec

    @classmethod
    def unit(cls, name: str) -> "IntVector":
        if not isinstance(name, str):
            raise TypeError("generator names must be strings, got %r" % (name,))
        vec = object.__new__(cls)
        vec._entries = {name: 1}
        vec._hash = None
        return vec

    def items(self) -> tuple:
        """Entries as (name, coefficient) pairs, sorted by name."""
        return tuple(sorted(self._entries.items()))

    def support(self) -> frozenset:
        return frozenset(self._entries)

    def __getitem__(self, name: str) -> int:
        return self._entries.get(name, 0)

    def __iter__(self):
        return iter(sorted(self._entries))

    def __len__(self):
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def is_nonnegative(self) -> bool:
        return all(c > 0 for c in self._entries.values())

    # the parts keep values of a checked vector, or their negations, which
    # the symmetric window also holds
    def positive_part(self) -> "IntVector":
        return IntVector._trusted({k: c for k, c in self._entries.items() if c > 0})

    def negative_part(self) -> "IntVector":
        """The vector n with self = positive_part - n; n has coefficients > 0."""
        return IntVector._trusted({k: -c for k, c in self._entries.items() if c < 0})

    def __add__(self, other: "IntVector") -> "IntVector":
        data = dict(self._entries)
        for k, c in other._entries.items():
            data[k] = data.get(k, 0) + c
        return IntVector._of(data)

    def __sub__(self, other: "IntVector") -> "IntVector":
        data = dict(self._entries)
        for k, c in other._entries.items():
            data[k] = data.get(k, 0) - c
        return IntVector._of(data)

    def __neg__(self) -> "IntVector":
        return IntVector._of({k: -c for k, c in self._entries.items()})

    def scaled(self, factor: int) -> "IntVector":
        if factor == 0:
            return IntVector()
        return IntVector._of({k: c * factor for k, c in self._entries.items()})

    def __eq__(self, other):
        if not isinstance(other, IntVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.items())
        return self._hash

    def __repr__(self):
        if not self._entries:
            return "IntVector()"
        body = " ".join(
            "%+d*%s" % (c, k) for k, c in sorted(self._entries.items())
        )
        return "IntVector(%s)" % body


ZERO = IntVector()


# the matrix algebra's public names, served by __getattr__ from polyadc.smith
_MOVED = frozenset((
    "SmithDecomposition", "QuotientBasis", "determinant", "mat_mul",
    "monoid_coordinates", "quotient_free_basis", "smith_normal_form",
    "unimodular_inverse",
))


def __getattr__(name):
    # Only the moved names: the import system looks up ``__path__`` here on
    # every ``from .zlin import ...``, and that must not load the matrices.
    if name in _MOVED:
        from . import smith
        return getattr(smith, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
