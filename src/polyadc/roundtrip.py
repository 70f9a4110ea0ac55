"""Linearizing an enumerated cell set and checking it against the complex.

The linearization of a cell set is the free group on its cells modulo the
relation identifying each composite with the sum of its factors, one degree
at a time.  :func:`lambda_of_enumerated` computes it with the Smith-form
quotient of :mod:`polyadc.smith`, keeping each cell's class as a vector,
and :func:`check_omega_basis` decides whether a family of cells is a basis
of it.  When the starting complex is strong Steiner the atoms form such a
basis and the whole construction collapses back onto the complex it came
from.  :func:`verify_equivalence` certifies that without matrices: sending
a cell to its top row is a homomorphism from the linearization onto the
complex, and :func:`top_row_certificate` checks, in one pass over the cells
and their provenance, that it is an isomorphism of augmented complexes.
"""

from __future__ import annotations

from . import nu, smith
from .adc import Adc, is_strong_steiner_complex, validate_adc
from .zlin import IntVector, Record, _ck


class QuotientLambda(Record):
    """The degreewise quotient of an enumerated cell set.

    ``complex`` carries the induced differential and augmentation on the
    fresh quotient bases.  ``projections[q]`` maps each degree-q cell name
    to its class, a vector over the degree-q quotient basis, and
    ``sections[q]`` maps each degree-q basis name to a vector over the cell
    names that the projection sends back to it; both are the
    :class:`polyadc.smith.QuotientBasis` fields of that degree.
    """

    __slots__ = ("complex", "cells", "cell_names", "projections", "sections",
                 "_classes")
    _fields = __slots__[:-1]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, complex: Adc,
                 cells: dict,        # q -> tuple of NuTable, ambient order
                 cell_names: dict,   # q -> tuple of str, aligned with cells
                 projections: dict,  # q -> {cell name: class over the quotient basis}
                 sections: dict):    # q -> {basis name: vector over the cell names}
        self._fill(complex, cells, cell_names, projections, sections)
        self._classes = {}
        for q, projection in projections.items():
            for table, name in zip(cells.get(q, ()), cell_names.get(q, ())):
                self._classes[table] = projection[name]

    def class_of(self, table: nu.NuTable) -> IntVector:
        """The image of a cell in the quotient basis of its degree."""
        cls = self._classes.get(table)
        if cls is None:
            raise ValueError("table is not among the enumerated cells")
        return cls

    def rank(self, q: int) -> int:
        return len(self.complex.generators(q))


def lambda_of_enumerated(enum: nu.EnumeratedOmegaCat) -> QuotientLambda:
    """Quotient the free groups on the enumerated cells by composition.

    One relation per composable pair (composite minus the two factors),
    listed by level, then left factor, then right factor, each in cell
    order; the pairs and their composites are read from
    ``enum.index.products``, one scan of the filed codes.  Each degree's
    quotient gives every cell name its class and every basis name its
    section vector over the cells.  The differential of a quotient
    generator is transported through its section vector, using the faces
    of the cells and the classes one degree down.  Raises ValueError when
    a composite or a face of the enumerated cells was not itself
    enumerated.
    """
    cells = {q: tuple(ts) for q, ts in enum.cells.items()}
    cell_names = {
        q: tuple("c%d_%d" % (q, i) for i in range(len(ts)))
        for q, ts in cells.items()
    }
    name_of = {}
    by_name = {}
    for q, ts in cells.items():
        for table, nm in zip(ts, cell_names[q]):
            name_of[table] = nm
            by_name[nm] = table

    projections = {}
    sections = {}
    basis_levels = []
    for q in range(enum.max_dim + 1):
        ambient = cell_names.get(q, ())
        relations = []
        for (_, i, j), k in sorted(enum.index.products.get(q, {}).items()):
            if k is None:
                raise ValueError(
                    "a composite of two enumerated %d-cells was not enumerated; "
                    "the cell set is not closed under composition" % q
                )
            relation = {ambient[k]: 1}
            relation[ambient[i]] = relation.get(ambient[i], 0) - 1
            relation[ambient[j]] = relation.get(ambient[j], 0) - 1
            relations.append(IntVector._of(relation))
        qb = smith.quotient_free_basis(ambient, relations, name_prefix="q%d_" % q)
        projections[q] = qb.projection
        sections[q] = qb.section
        basis_levels.append(qb.basis)

    differential = {}
    augmentation = {}
    for q, level in enumerate(basis_levels):
        below = projections.get(q - 1)  # the classes of the (q-1)-cells
        for gen in level:
            section_col = sections[q][gen]
            if q == 0:
                augmentation[gen] = sum(c for _, c in section_col.items())
                continue
            dvec = IntVector()
            for cell_name, coeff in section_col.items():
                table = by_name[cell_name]
                src = nu.face(table, q - 1, -1)
                tgt = nu.face(table, q - 1, +1)
                for f in (src, tgt):
                    if f not in enum:
                        raise ValueError(
                            "a face of an enumerated %d-cell was not enumerated; "
                            "the cell set is not face-closed" % q
                        )
                step = below[name_of[tgt]] - below[name_of[src]]
                dvec = dvec + step.scaled(coeff)
            differential[gen] = dvec

    quotient = Adc(basis_levels, differential, augmentation)
    check = validate_adc(quotient)
    if not check.ok:
        raise ValueError("induced quotient complex is broken: %r" % (check.failures[0],))
    return QuotientLambda(
        complex=quotient,
        cells=cells,
        cell_names=cell_names,
        projections=projections,
        sections=sections,
    )


# ---------------------------------------------------------------------------
# basis checking

class OmegaBasisReport(Record):
    __slots__ = _fields = ("ok", "failed", "detail")

    def __init__(self, ok: bool,
                 failed: str | None,  # generation | injectivity | z-basis | n-basis
                 detail: str | None):
        self._fill(ok, failed, detail)


def check_omega_basis(enum: nu.EnumeratedOmegaCat, candidate,
                      quotient: QuotientLambda | None = None) -> OmegaBasisReport:
    """Is the candidate cell family a basis of the enumerated category?

    Four checks, in order: the candidates generate everything under
    composition; their classes are pairwise distinct; they form a Z-basis
    of each quotient degree; and every cell class is a unique N-combination
    of candidate classes.  Generation is decided by the closure loop
    (:func:`nu.close_under_composition`): the candidates are closed under
    identities and composition, admitting only enumerated cells, so a cell
    is generated when it is a candidate, the identity of a generated cell,
    or the composite of two generated cells.  The closure packs rows of its
    own, so ``enum.index`` is left as it was.  The Smith form decides
    unimodularity and gives the inverse that the N-basis step reads.
    """
    if quotient is None:
        quotient = lambda_of_enumerated(enum)
    per_dim = {q: [] for q in range(enum.max_dim + 1)}
    for table in candidate:
        if table not in enum:
            raise ValueError("candidate table is not among the enumerated cells")
        per_dim[table.dim].append(table)

    closed = nu.close_under_composition(
        [t for tables in per_dim.values() for t in tables], enum.max_dim,
        enum.__contains__)
    for q in range(enum.max_dim + 1):
        missing = len(enum.index.codes.get(q, ())) - len(closed.codes.get(q, ()))
        if missing:
            return OmegaBasisReport(
                ok=False, failed="generation",
                detail="%d of the %d-cells are not generated" % (missing, q),
            )

    # injectivity of classes on the candidate family
    for q, tables in per_dim.items():
        classes = [quotient.class_of(t) for t in tables]
        if len(set(classes)) != len(classes):
            return OmegaBasisReport(
                ok=False, failed="injectivity",
                detail="two candidate %d-cells share a class" % q,
            )

    # Z-basis degreewise: square and unimodular
    inverses = {}
    for q in range(enum.max_dim + 1):
        tables = per_dim[q]
        rank = quotient.rank(q)
        if len(tables) != rank:
            return OmegaBasisReport(
                ok=False, failed="z-basis",
                detail="%d candidates against rank %d in degree %d"
                       % (len(tables), rank, q),
            )
        if rank == 0:
            continue
        basis_names = quotient.complex.generators(q)
        cols = [quotient.class_of(t) for t in tables]
        inverse = smith.unimodular_inverse(
            [[col[name] for col in cols] for name in basis_names])
        if inverse is None:
            return OmegaBasisReport(
                ok=False, failed="z-basis",
                detail="candidate classes are not unimodular in degree %d" % q,
            )
        inverses[q] = (basis_names, inverse)

    # N-basis: the coordinates of a cell class over the candidate classes
    # are the inverse matrix times the class; all must be non-negative
    for q, (basis_names, inverse) in inverses.items():
        column_of = {name: [row[j] for row in inverse]
                     for j, name in enumerate(basis_names)}
        for table in enum.cells.get(q, ()):
            coords = [0] * len(inverse)
            for name, c in quotient.class_of(table).items():
                for i, v in enumerate(column_of[name]):
                    coords[i] = _ck(coords[i] + _ck(v * c))
            if any(c < 0 for c in coords):
                return OmegaBasisReport(
                    ok=False, failed="n-basis",
                    detail="a %d-cell class is not a non-negative combination" % q,
                )

    return OmegaBasisReport(ok=True, failed=None, detail=None)


# ---------------------------------------------------------------------------
# the top-row certificate

def top_row_certificate(enum: nu.EnumeratedOmegaCat) -> str | None:
    """What keeps the top rows of the cells from being an isomorphism of
    the linearization onto the complex, or None when nothing does.

    Sending a cell to its top row adds up over every composite and kills
    identities, so it is a homomorphism from the linearization of the
    cells; it is an isomorphism onto the complex when the atoms' classes
    span the linearization and their images are the generators.  Degree by
    degree this checks that

    * each seed (provenance None) has the top row ``1 << slot`` of a
      generator of its degree that no earlier seed has, which names it,
      and the seeds name every generator;
    * every cell's top row agrees with its provenance in ``enum.index``:
      a seed, the identity of a filed cell one degree down (top row 0, the
      rows below equal to that cell's), or the composite of two cells
      filed before it (the sum of their top rows);
    * each cell of degree q >= 1 has its two (q-1)-faces among the cells,
      and the boundary of its top row is the difference of their top rows,
      which carries the differential across; each 0-cell has augmentation 1.

    It reads the packed codes in ``enum.index``; it packs no table, unpacks
    no row and reads no ``atom_names``.  The boundary is linear in the top
    row: the seed's generator's signed packed differential, 0 for an
    identity, the sum of a composite's (checked) factors' face
    differences.  Packing is one to one on entries up to 3 * ``limit`` in
    size, so each check is one comparison.

    Provenance must be None, ``(t,)`` or ``(p, i, j)``, and name cells by
    positions in range, earlier ones in the same degree, so every cell
    traces back to the seeds.  The cells must come from
    :func:`nu.enumerate_nu`, whose seeds are the atoms; in a hand-built
    cell set every cell counts as a seed.
    """
    complex_, index, rows = enum.complex, enum.index, enum.index.rows
    for q in range(enum.max_dim + 1):
        codes = index.codes.get(q, ())
        provenance = index.provenance.get(q, ())
        lower = index.codes.get(q - 1, ())
        faces = index.located.get(q - 1, {})
        slot, generators, named = rows.slots[q], complex_.generators(q), 0
        # the generators no seed has named yet, by the top row that names them
        unnamed = {1 << slot[name]: name for name in generators if name in slot}
        for k, x in enumerate(codes):
            origin = provenance[k]
            if origin is None:
                name = unnamed.pop(x[-1], None)
                if name is None:
                    return "%d-cell %d has no provenance" % (q, k)
                named += 1
                want = x[-1]
                change = q and _signed(rows, q - 1, complex_.diff(name))
            elif len(origin) == 1:
                if not 0 <= origin[0] < len(lower):
                    return "%d-cell %d is the identity of no filed cell" % (q, k)
                if x[:-2] != lower[origin[0]]:
                    return ("%d-cell %d differs below its top row from the cell "
                            "it is the identity of" % (q, k))
                want = change = 0
            elif len(origin) == 3:
                _, i, j = origin
                if not (0 <= i < k and 0 <= j < k):
                    return "%d-cell %d is composed of cells not filed before it" % (q, k)
                xi, xj = codes[i], codes[j]
                want, change = xi[-1] + xj[-1], q and xi[-3] - xi[-4] + xj[-3] - xj[-4]
            else:
                return ("%d-cell %d has a provenance that is no seed, identity or "
                        "composite" % (q, k))
            if x[-2] != want or x[-1] != want:
                return "the top row of %d-cell %d disagrees with its provenance" % (q, k)
            if q == 0:  # a seed, or broken provenance
                augmentation = complex_.eps_gen(name) if origin is None else None
                if augmentation != 1:
                    return "0-cell %d has augmentation %s" % (k, augmentation)
                continue
            stem, neg, pos = x[:-4], x[-4], x[-3]
            if stem + (neg, neg) not in faces or stem + (pos, pos) not in faces:
                return "a %d-face of %d-cell %d was not enumerated" % (q - 1, q, k)
            if change != pos - neg:
                return ("the boundary of the top row of %d-cell %d is not the "
                        "difference of its faces" % (q, k))
        if named != len(generators):
            return "the %d-atoms are not the %d-generators one each" % (q, q)
    return None


def _signed(rows: nu.PackedRows, p: int, vec: IntVector):
    """A degree-p vector packed with signed entries, or None when it is
    the difference of no two packed rows."""
    slot, entries = rows.slots[p], vec._entries.items()
    if all(name in slot and abs(c) <= rows.limit for name, c in entries):
        return sum(c << slot[name] for name, c in entries)


# ---------------------------------------------------------------------------
# the full equivalence check

class RoundtripReport(Record):
    __slots__ = _fields = ("ok", "reason", "cell_counts", "ranks")

    def __init__(self, ok: bool, reason: str | None, cell_counts: dict, ranks: dict):
        self._fill(ok, reason, cell_counts, ranks)


def verify_equivalence(complex_: Adc, max_cells: int = 10000,
                       max_coeff: int = 8) -> RoundtripReport:
    """Enumerate the cells of the complex and certify that linearizing them
    gives back the complex, with the atoms as its basis.

    The complex must classify as strong Steiner; if it does not, the
    report says so rather than raising.  The cells are enumerated from the
    atoms, and :func:`top_row_certificate` checks that their top rows are
    an isomorphism of the linearization onto the complex, which carries
    differential and augmentation; no quotient is computed.  The rank of
    degree q is then the number of degree-q generators.  A failed
    certificate is reported as ``atoms are not a basis (certificate:
    ...)``; enumeration caps raise.
    """
    if not is_strong_steiner_complex(complex_):
        return RoundtripReport(False, "not a strong Steiner complex", {}, {})
    enum = nu.enumerate_nu(complex_, max_dim=complex_.max_degree,
                           max_cells=max_cells, max_coeff=max_coeff)
    counts = {q: len(enum.index.codes.get(q, ())) for q in range(enum.max_dim + 1)}
    ranks = {q: len(complex_.generators(q)) for q in range(enum.max_dim + 1)}
    failure = top_row_certificate(enum)
    if failure is not None:
        return RoundtripReport(
            False, "atoms are not a basis (certificate: %s)" % failure, counts, ranks)
    return RoundtripReport(True, None, counts, ranks)
