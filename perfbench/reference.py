"""Independent exact model used to generate benchmark inputs and expected answers.

Nothing here imports flagcy.  Roots are found as the Weyl-group orbit of the
simple roots (reflection closure), which is a different algorithm from the
library's root-string enumeration, and every expected value the benchmark
checks an output against is computed from this model.

Conventions match the library's documented ones: Bourbaki node numbering,
``C[i][j] = <alpha_i, alpha_j_coroot>``, half square length 1 on short roots,
1-based simple-root indices for parabolic sets and Picard directions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd


def _diagram(family: str, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Half square lengths of the simple roots and the Dynkin edges (0-based)."""
    chain = [(i, i + 1) for i in range(n - 1)]
    if family == "A":
        return [1] * n, chain
    if family == "B":
        return [2] * (n - 1) + [1], chain
    if family == "C":
        return [1] * (n - 1) + [2], chain
    if family == "D":
        return [1] * n, chain[:-1] + [(n - 3, n - 1)]
    if family == "E":
        return [1] * n, [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    if family == "F":
        return [2, 2, 1, 1], chain
    if family == "G":
        return [1, 3], chain
    raise ValueError(f"unknown family {family}")


def closed_form_root_count(family: str, n: int) -> int:
    if family == "A":
        return n * (n + 1) // 2
    if family in "BC":
        return n * n
    if family == "D":
        return n * (n - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return {"F": 24, "G": 6}[family]


class RootModel:
    """Positive roots of one simple type with their coroot coordinates."""

    def __init__(self, family: str, n: int):
        self.family, self.n = family, n
        d, edges = _diagram(family, n)
        # symmetric form (alpha_i, alpha_j); a bond joins to the longer root's length
        form = [[2 * d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            form[i][j] = form[j][i] = -max(d[i], d[j])
        self.form = form
        self.d = d
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        seen = set(simple)
        todo = list(simple)
        while todo:
            beta = todo.pop()
            for i in range(n):
                k = self.pair_simple_coroot(beta, i)
                image = tuple(m - k * (j == i) for j, m in enumerate(beta))
                if image not in seen and all(m >= 0 for m in image) and any(image):
                    seen.add(image)
                    todo.append(image)
        self.roots = sorted(seen, key=lambda m: (sum(m), m))
        if len(self.roots) != closed_form_root_count(family, n):
            raise AssertionError(f"reference found {len(self.roots)} roots for {family}{n}")
        self.coroots = [self._coroot(m) for m in self.roots]

    def pair_simple_coroot(self, beta, i: int) -> int:
        """<beta, alpha_i_coroot> for beta in simple-root coordinates."""
        return sum(m * self.form[j][i] for j, m in enumerate(beta)) // self.d[i]

    def _coroot(self, beta) -> tuple[Fraction, ...]:
        half = sum(
            beta[i] * beta[j] * self.form[i][j] for i in range(self.n) for j in range(self.n)
        ) // 2
        return tuple(Fraction(m * self.d[j], half) for j, m in enumerate(beta))


@lru_cache(maxsize=None)
def root_model(family: str, n: int) -> RootModel:
    return RootModel(family, n)


class FlagModel:
    """Expected invariants of one flag variety, computed from the root model."""

    def __init__(self, family: str, n: int, parabolic: tuple[int, ...] = ()):
        model = root_model(family, n)
        self.family, self.n = family, n
        self.parabolic = tuple(sorted(parabolic))
        self.complement = tuple(a for a in range(1, n + 1) if a not in self.parabolic)
        off = [
            (beta, cor)
            for beta, cor in zip(model.roots, model.coroots)
            if any(beta[a - 1] for a in self.complement)
        ]
        self.off_roots = [beta for beta, _ in off]
        # coroot coordinates restricted to the Picard directions: every class
        # pairing is a dot product with one of these rows
        self.rows = [tuple(cor[a - 1] for a in self.complement) for _, cor in off]
        self.rho_pairings = [sum(cor) for _, cor in off]
        self.dim = len(off)
        self.anticanonical = tuple(
            sum(model.pair_simple_coroot(beta, a - 1) for beta in self.off_roots)
            for a in self.complement
        )
        self.index = 0
        for value in self.anticanonical:
            self.index = gcd(self.index, value)

    @property
    def picard_rank(self) -> int:
        return len(self.complement)

    def parabolic_arg(self) -> str:
        return ",".join(str(i) for i in self.parabolic)

    def pairings(self, cls) -> list[Fraction]:
        return [sum((c * r for c, r in zip(cls, row)), Fraction(0)) for row in self.rows]

    def eigenvalues(self, omega, psi) -> list[Fraction]:
        return sorted(p / w for p, w in zip(self.pairings(psi), self.pairings(omega)))

    def volume(self, omega) -> Fraction:
        out = Fraction(1)
        for w, r in zip(self.pairings(omega), self.rho_pairings):
            out *= w / r
        return out

    def pairing_vector(self, omega) -> tuple[tuple[int, ...], int]:
        """Primitive degree vector ``q`` and the GCD ``tau`` divided out of it.

        Degrees are taken against the minimal integral multiple of ``omega``,
        as the library documents.
        """
        scale = 1
        for c in omega:
            scale = scale * Fraction(c).denominator // gcd(scale, Fraction(c).denominator)
        integral = [Fraction(c) * scale for c in omega]
        pair_w = self.pairings(integral)
        vol = self.volume(integral)
        fact = factorial(self.dim - 1)
        raw = []
        for k in range(self.picard_rank):
            lam = sum((row[k] / w for row, w in zip(self.rows, pair_w)), Fraction(0))
            value = fact * lam * vol
            if value.denominator != 1:
                raise AssertionError("degree of a Picard generator is not an integer")
            raw.append(int(value))
        tau = 0
        for value in raw:
            tau = gcd(tau, value)
        return tuple(v // tau for v in raw), tau


def partial_flag(family: str, n: int, picard: int, rng) -> FlagModel:
    """A seeded partial flag of the given Picard rank with dimension near a fifth of the full one.

    Restricting the draw to flags of about the same size keeps the cost of a
    pass nearly the same for every seed; a fifth rather than a larger share
    keeps a pass short enough for each op to be timed several times in a run.
    """
    comp = rng.choice(_partial_pool(family, n, picard))
    return FlagModel(family, n, tuple(i + 1 for i in range(n) if i not in comp))


@lru_cache(maxsize=None)
def _partial_pool(family: str, n: int, picard: int) -> list[tuple[int, ...]]:
    """The complements (0-based) that ``partial_flag`` draws from."""
    supports = [sum(1 << j for j, m in enumerate(beta) if m) for beta in root_model(family, n).roots]
    target = len(supports) / 5
    scored = sorted(
        (abs(sum(1 for s in supports if s & sum(1 << j for j in comp)) - target), comp)
        for comp in combinations(range(n), picard)
    )
    return [comp for gap, comp in scored if gap <= scored[0][0] + 0.02 * len(supports)]


def in_two_term_span(q, pivot_pos: int, c) -> bool:
    """Closed-form membership in the span of the two-term generators.

    For ``q . c = 0`` the vector is an integer combination of the generators
    exactly when ``q_gamma`` divides every other coordinate.
    """
    return all(c[i] % q[pivot_pos] == 0 for i in range(len(c)) if i != pivot_pos)


def degree_zero_vectors(q, rng, count: int, spread: int = 3) -> list[tuple[int, ...]]:
    """Nonzero integer vectors with ``q . c = 0``, from seeded pair relations."""
    rho = len(q)
    pairs = []
    for a in range(rho):
        for b in range(a + 1, rho):
            g = gcd(q[a], q[b])
            v = [0] * rho
            v[a], v[b] = q[b] // g, -q[a] // g
            pairs.append(v)
    out = []
    while len(out) < count:
        c = [0] * rho
        for v in rng.sample(pairs, min(len(pairs), 2)):
            m = rng.choice([x for x in range(-spread, spread + 1) if x])
            c = [x + m * y for x, y in zip(c, v)]
        if any(c):
            out.append(tuple(c))
    return out


def frac_str(value) -> str:
    return str(Fraction(value))
