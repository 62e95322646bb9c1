"""Exact root systems of the simple complex Lie algebras.

Root and coroot coordinates are exact integers.  Types A-D come from closed
forms (Bourbaki, Plates I-IV): every positive root is a tail of one of a few
templates, and one sort puts them in order.  Types E, F and G come from the
closure, which also checks the closed forms in the tests: roots are built one
height level at a time, a root ``beta`` carries its Cartan row ``r``, its half
square length and the down-lengths ``p`` of its simple root strings, and
``beta + alpha_i`` is a root exactly when ``p_i > r_i``; it inherits all
three by one addition each, ``p_i`` growing by one.  The coroot coordinates
are what every higher layer consumes: in the fundamental-weight basis the
pairing ``<w, beta_coroot>`` is the dot product of ``w`` with the coroot
coordinates of ``beta``, so ``make_flag`` reads the integer pairing table of
a flag straight off this datum.

Conventions:

* Cartan matrix ``C[i][j] = <alpha_i, alpha_j_coroot>`` (columns normalized
  by the length of ``alpha_j``), Bourbaki node numbering.
* Weights live in the fundamental-weight basis, so ``<w, alpha_j_coroot>``
  is simply the j-th coordinate of ``w``; coroot coordinates are integral on
  every type.
* Root lengths are normalized so short roots have half square length 1
  (B/C/F: long = 2, G2: long = 3); only ratios ever matter downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import add, gt, mul

from .errors import InvalidRank, _integer

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

#: families A-D stop at rank 64, so a request cannot ask for more than 64^2 roots
_MAX_CLASSICAL_RANK = 64

_RANK_RANGE = {
    "A": (1, _MAX_CLASSICAL_RANK),
    "B": (2, _MAX_CLASSICAL_RANK),
    "C": (2, _MAX_CLASSICAL_RANK),
    "D": (3, _MAX_CLASSICAL_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class LieType:
    """A simple Lie family letter together with its rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidRank(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "rank", _integer(self.rank, InvalidRank, "rank"))
        lo, hi = _RANK_RANGE[self.family]
        if not lo <= self.rank <= hi:
            raise InvalidRank(f"family {self.family} needs rank in [{lo}, {hi}], got {self.rank}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _family_rank(lie_type: LieType) -> tuple[str, int]:
    """The family and rank of a ``LieType``; any other object is InvalidRank."""
    if not isinstance(lie_type, LieType):
        raise InvalidRank(f"expected a LieType, got {lie_type!r}")
    return lie_type.family, lie_type.rank


def positive_root_count(lie_type: LieType) -> int:
    """Closed-form number of positive roots for each family."""
    fam, n = _family_rank(lie_type)
    if fam == "A":
        return n * (n + 1) // 2
    if fam in ("B", "C"):
        return n * n
    if fam == "D":
        return n * (n - 1)
    if fam == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return 24 if fam == "F" else 6


def cartan_matrix(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with ``C[i][j] = <alpha_i, alpha_j_coroot>`` (0-based)."""
    fam, n = _family_rank(lie_type)
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        C[i][j] = cij
        C[j][i] = cji

    if fam == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif fam == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, cij=-2, cji=-1)  # alpha_n short
    elif fam == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, cij=-1, cji=-2)  # alpha_n long
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)  # fork: last node hangs off node n-2
    elif fam == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5)):
            bond(i, j)
        for i in range(5, n - 1):
            bond(i, i + 1)
        bond(1, 3)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, cij=-2, cji=-1)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        bond(2, 3)
    else:  # G
        bond(0, 1, cij=-1, cji=-3)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in C)


def symmetrizer(lie_type: LieType) -> tuple[int, ...]:
    """Half square lengths d_j of the simple roots, short roots scaled to 1."""
    fam, n = _family_rank(lie_type)
    if fam in ("A", "D", "E"):
        return (1,) * n
    if fam == "B":
        return (2,) * (n - 1) + (1,)
    if fam == "C":
        return (1,) * (n - 1) + (2,)
    if fam == "F":
        return (2, 2, 1, 1)
    return (1, 3)  # G2


@dataclass(frozen=True)
class PositiveRoot:
    """A positive root in simple-root coordinates plus its coroot coordinates.

    ``coroot_coords[j]`` is the coefficient of ``alpha_j_coroot`` in the
    expansion of the coroot; for simply-laced types it equals ``root_coords``.
    """

    root_coords: tuple[int, ...]
    coroot_coords: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.root_coords)


@dataclass(frozen=True)
class RootDatum:
    """Cartan matrix, symmetrizer and the full graded list of positive roots."""

    lie_type: LieType
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    positive_roots: tuple[PositiveRoot, ...]

    @property
    def rank(self) -> int:
        return self.lie_type.rank


def _closure(C: tuple[tuple[int, ...], ...], d: tuple[int, ...]) -> list[PositiveRoot]:
    """Enumerate all positive roots one height level at a time.

    Only the current and the next level are kept, and each level is emitted in
    decreasing lexicographic order.  Builds types E, F and G, and is the
    tests' oracle for ``_closed_form``.
    """
    n = len(d)
    indices = range(n)
    level = {tuple(1 if j == i else 0 for j in indices): (C[i], d[i], [0] * n) for i in indices}
    roots = []
    while level:
        grown: dict[tuple[int, ...], tuple[tuple[int, ...], int, list[int]]] = {}
        for beta in sorted(level, reverse=True):
            r, h, down = level[beta]
            if h <= 0:
                raise AssertionError(f"bad half square length {h} for {beta}")
            # the coroot 2 beta / (beta, beta) has coordinates beta_j d_j / h
            coroot = tuple(map(mul, beta, d))
            if h != 1:
                if any(x % h for x in coroot):
                    raise AssertionError(f"coroot of {beta} is not integral")
                coroot = tuple(x // h for x in coroot)
            roots.append(PositiveRoot(beta, coroot))
            # the alpha_i-string through beta reaches p_i down and p_i - r_i up
            for i in compress(indices, map(gt, down, r)):
                cand = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                entry = grown.get(cand)
                if entry is None:
                    # (beta + alpha_i)^2 / 2 = h + (beta, alpha_i) + d_i, (beta, alpha_i) = d_i r_i
                    entry = grown[cand] = (tuple(map(add, r, C[i])), h + d[i] * (r[i] + 1), [0] * n)
                entry[2][i] = down[i] + 1
        level = grown
    return roots


def _closed_form(family: str, d: tuple[int, ...]) -> list[PositiveRoot]:
    """The positive roots of type A-D, each a tail ``z[:i] + T[i:]`` of a template ``T``.

    In the ``e_k`` of Bourbaki's Plates I-IV (1-based), the tails of ``(1,)*j + z[j:]``
    are ``e_{i+1} - e_{j+1}`` (``e_{i+1}`` in B at ``j = n``), those of the doubled
    templates ``e_{i+1} + e_{j+1}``, of C's ``(2,)*(n-1) + (1,)`` ``2 e_{i+1}`` and of
    D's ``(1,)*(n-2) + (0, 1)`` ``e_{i+1} + e_n``.  A template's tails share its half
    square length ``h``, the gcd of ``T_j d_j`` (a coroot is primitive, like the simple
    coroot it is Weyl-conjugate to), so a tail's coroot is that tail of ``T_j d_j / h``.
    """
    n = len(d)
    z = (0,) * n
    # (T, stop): the roots are z[:i] + T[i:] for i < stop
    runs = [((1,) * j + z[j:], j) for j in range(1, n + 1 if family in "AB" else n)]
    if family == "B":
        runs += [((1,) * j + (2,) * (n - j), j) for j in range(1, n)]
    elif family == "C":
        runs += [((1,) * j + (2,) * (n - 1 - j) + (1,), j) for j in range(1, n)]
        runs.append(((2,) * (n - 1) + (1,), n))
    elif family == "D":
        runs.append(((1,) * (n - 2) + (0, 1), n - 1))
        runs += [((1,) * j + (2,) * (n - 2 - j) + (1, 1), j) for j in range(1, n - 1)]
    rows = []
    for t, stop in runs:
        scaled = tuple(map(mul, t, d))
        h = gcd(*scaled)
        c = tuple(x // h for x in scaled)
        same = c == t  # as in A and D: each coroot tuple is its root tuple
        height = -sum(t)
        for i in range(stop):
            beta = z[:i] + t[i:]
            rows.append((height, beta, beta if same else z[:i] + c[i:]))
            height += t[i]
    rows.sort(reverse=True)  # the closure's order: by height, then decreasing root
    return [PositiveRoot(beta, coroot) for _, beta, coroot in rows]


@lru_cache(maxsize=None)
def build_root_datum(lie_type: LieType) -> RootDatum:
    """The root datum of ``lie_type``, exact and cached per Lie type.

    Roots are listed by increasing height, within a level in decreasing
    lexicographic order, so the root supported on earlier simple roots comes
    first.  Types A-D come from closed forms, E, F and G from the
    level-by-level closure.
    """
    C = cartan_matrix(lie_type)
    d = symmetrizer(lie_type)
    n = len(d)
    for i in range(n):
        for j in range(n):
            if C[i][j] * d[j] != C[j][i] * d[i]:
                raise AssertionError("symmetrizer does not symmetrize the Cartan matrix")

    roots = _closed_form(lie_type.family, d) if lie_type.family in "ABCD" else _closure(C, d)
    if len(roots) != positive_root_count(lie_type):
        raise AssertionError(
            f"enumerated {len(roots)} positive roots for {lie_type}, "
            f"expected {positive_root_count(lie_type)}"
        )
    return RootDatum(lie_type, C, d, tuple(roots))
