"""Test-only oracle: truncated power series over Fraction, and the builtins built on them.

:class:`Series` is a truncated power series with exact rational
coefficients and the ring operations the package no longer needs
(``compose``, ``reciprocal``, ``divide_by``, ``__pow__``). The tests wrap the
coefficients of ``polycauchy2.builtin_series`` in it to check them
algebraically, and run the L(t) identities through it as written in the
paper.

``paper_series`` builds each builtin the way the package once did: the
powers of sqrt(1+t^2) from extended double factorials, and L(t) as the
quotient t / arcsinh(t). It is the reference that ``polycauchy2 series``
must reproduce byte for byte.

The classical (level 1) poly-Cauchy numbers c_n^(k) are here as well, by two
routes that share no code: the signed Stirling sum, and the EGF coefficient
of lif_k(log(1+t)) composed on ``Series``.

``poly_mul`` multiplies dense polynomials, coefficients low degree to high,
by the schoolbook double loop. The package no longer multiplies polynomials;
the tests expand products with it to check the polynomials the package builds.
``product_tree_row`` multiplies out x (x ± 1^2) ... (x ± (n-1)^2) with it by a
balanced product tree, a route to [[n, m]] and t(2n, 2m) that never builds a
row of the triangle from the row before, as the package's recurrence does.

``series_route_values`` reads C_{2n}^(k) off columns of
``arcsinh_power_egf`` a test already holds, through the series route's own
weighted sum ``polycauchy._sum_over_powers``, looked up at each call so that a
test that patches the kernel patches this read too.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from polycauchy2 import polycauchy, stirling1

_Scalar = (int, Fraction)


class Series:
    """Immutable truncated power series over Fraction."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients, order: int | None = None):
        coeffs = [Fraction(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError(f"series order must be >= 0, got {order}")
            if len(coeffs) > order + 1:
                coeffs = coeffs[: order + 1]
            else:
                coeffs.extend(Fraction(0) for _ in range(order + 1 - len(coeffs)))
        elif not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = tuple(coeffs)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([Fraction(1)], order)

    @classmethod
    def x(cls, order: int) -> "Series":
        """The series t (requires order >= 1)."""
        if order < 1:
            raise ValueError("the series t needs order >= 1")
        return cls([Fraction(0), Fraction(1)], order)

    # -- inspection ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise ValueError(f"coefficient index {i} outside truncation order {self.order}")
        return self._coeffs[i]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self._coeffs):
            if c != 0:
                return i
        return None

    def egf_coefficient(self, n: int) -> Fraction:
        """n! * c[n]: the coefficient when the series is read as an EGF."""
        return factorial(n) * self.coefficient(n)

    def egf_even_coefficient(self, n: int) -> Fraction:
        """(2n)! * c[2n]: EGF coefficient of an even-index term."""
        if n < 0:
            raise ValueError(f"even EGF index must be >= 0, got {n}")
        return factorial(2 * n) * self.coefficient(2 * n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"Series([{head}{tail}], order={self.order})"

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series([a + b for a, b in zip(self._coeffs, other._coeffs)], n)
        if isinstance(other, _Scalar):
            coeffs = list(self._coeffs)
            coeffs[0] += other
            return Series(coeffs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series([a - b for a, b in zip(self._coeffs, other._coeffs)], n)
        if isinstance(other, _Scalar):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self._coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other._coeffs[j]
                    if b:
                        out[i + j] += a * b
            return Series(out, n)
        if isinstance(other, _Scalar):
            return Series([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"series powers take integer exponents >= 0, got {exponent!r}")
        result = Series.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def __truediv__(self, other):
        if isinstance(other, _Scalar):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return Series([c / other for c in self._coeffs])
        if isinstance(other, Series):
            return self.divide_by(other)
        return NotImplemented

    # -- calculus and composition ----------------------------------------------

    def derivative(self, times: int = 1) -> "Series":
        """Termwise derivative; each application lowers the order by one."""
        if times < 0:
            raise ValueError(f"derivative count must be >= 0, got {times}")
        if times > self.order:
            raise ValueError(
                f"cannot differentiate {times} times at truncation order {self.order}"
            )
        coeffs = list(self._coeffs)
        for _ in range(times):
            coeffs = [i * coeffs[i] for i in range(1, len(coeffs))]
        return Series(coeffs, self.order - times)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)), exact through min(orders); inner must have no constant term."""
        if inner._coeffs[0] != 0:
            raise ValueError("composition requires the inner series to vanish at 0")
        n = min(self.order, inner.order)
        inner_t = Series(inner._coeffs, n)
        acc = Series.zero(n)
        for c in reversed(self._coeffs[: n + 1]):
            acc = acc * inner_t + c
        return acc

    def reciprocal(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self._coeffs
        if a[0] == 0:
            raise ValueError("reciprocal requires a nonzero constant term")
        out = [Fraction(0)] * (self.order + 1)
        out[0] = 1 / a[0]
        for n in range(1, self.order + 1):
            s = Fraction(0)
            for i in range(1, n + 1):
                if a[i]:
                    s += a[i] * out[n - i]
            out[n] = -s / a[0]
        return Series(out, self.order)

    def divide_by(self, den: "Series") -> "Series":
        """Exact quotient self/den, cancelling a shared power of t.

        The denominator's valuation v must be matched by the numerator: the
        low v coefficients of self must be exactly zero, otherwise the
        quotient would not be a power series and a ValueError is raised.
        The result is truncated at min(orders) - v.
        """
        v = den.valuation()
        if v is None:
            raise ZeroDivisionError("division by the zero series")
        if any(c != 0 for c in self._coeffs[:v]):
            raise ValueError(
                f"numerator valuation is below the denominator valuation {v}"
            )
        n = min(self.order, den.order) - v
        if n < 0:
            raise ValueError("truncation order too small to divide these series")
        num_shifted = Series(self._coeffs[v:], n)
        den_shifted = Series(den._coeffs[v:], n)
        return num_shifted * den_shifted.reciprocal()


def poly_mul(a, b):
    """The product of two coefficient lists; integer inputs give integer coefficients."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def product_tree_row(n: int, sign: int = 1) -> tuple[int, ...]:
    """Coefficients of x (x + s 1^2)(x + s 2^2) ... (x + s (n-1)^2), s = sign, low degree first.

    Row n of [[n, m]] for s = 1 and of t(2n, 2m) for s = -1; row 0 is (1,).
    The linear factors are multiplied in pairs, level by level, with
    ``poly_mul``, so no step is the recurrence's one-factor update.
    """
    if n == 0:
        return (1,)
    factors = [[0, 1]] + [[sign * i * i, 1] for i in range(1, n)]
    while len(factors) > 1:
        paired = [poly_mul(a, b) for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[2 * len(paired) :]
    return tuple(factors[0])


def double_factorial(a: int) -> Fraction:
    """Double factorial of an odd integer, extended to negative odd arguments.

    For a >= 1 this is a(a-2)(a-4)...1. The extension sets (-1)!! = 1 and
    (-(2i+1))!! = (-1)^i / (2i-1)!!, which is exactly what makes
    a * (a-2)!! = a!! hold for every odd a.
    """
    if a % 2 == 0:
        raise ValueError(f"double factorial is only defined for odd integers, got {a}")
    if a >= 1:
        product = 1
        while a >= 1:
            product *= a
            a -= 2
        return Fraction(product)
    if a == -1:
        return Fraction(1)
    i = (-a - 1) // 2
    odd_product = 1
    for j in range(1, 2 * i, 2):
        odd_product *= j
    return Fraction(-1 if i % 2 else 1, odd_product)


# -- builtin expansions ---------------------------------------------------------


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _arcsinh(order: int) -> Series:
    coeffs = [Fraction(0)] * (order + 1)
    for j in range(0, (order - 1) // 2 + 1):
        coeffs[2 * j + 1] = Fraction(
            _sign(j) * factorial(2 * j), 4**j * factorial(j) ** 2 * (2 * j + 1)
        )
    return Series(coeffs, order)


def _log1p(order: int) -> Series:
    coeffs = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        coeffs[m] = Fraction(_sign(m - 1), m)
    return Series(coeffs, order)


def _lif_k(order: int, k: int) -> Series:
    coeffs = [Fraction(1, factorial(m)) * Fraction(m + 1) ** (-k) for m in range(order + 1)]
    return Series(coeffs, order)


def _lif2_k(order: int, k: int) -> Series:
    coeffs = [Fraction(0)] * (order + 1)
    for m in range(0, order // 2 + 1):
        coeffs[2 * m] = Fraction(1, factorial(2 * m)) * Fraction(2 * m + 1) ** (-k)
    return Series(coeffs, order)


def _sqrt_1pt2(order: int) -> Series:
    # sqrt(1+t^2): coefficient of t^(2j) is (-1)^(j-1) (2j-3)!! / (2^j j!)
    coeffs = [Fraction(0)] * (order + 1)
    for j in range(0, order // 2 + 1):
        coeffs[2 * j] = _sign(j - 1) * double_factorial(2 * j - 3) / (2**j * factorial(j))
    return Series(coeffs, order)


def _invsqrt_1pt2(order: int) -> Series:
    # (1+t^2)^(-1/2): coefficient of t^(2j) is (-1)^j (2j-1)!! / (2^j j!)
    coeffs = [Fraction(0)] * (order + 1)
    for j in range(0, order // 2 + 1):
        coeffs[2 * j] = _sign(j) * double_factorial(2 * j - 1) / (2**j * factorial(j))
    return Series(coeffs, order)


def _inv32_1pt2(order: int) -> Series:
    # (1+t^2)^(-3/2): coefficient of t^(2j) is (-1)^j (2j+1)!! / (2^j j!)
    coeffs = [Fraction(0)] * (order + 1)
    for j in range(0, order // 2 + 1):
        coeffs[2 * j] = _sign(j) * double_factorial(2 * j + 1) / (2**j * factorial(j))
    return Series(coeffs, order)


def _big_l(order: int) -> Series:
    # L(t) = t / arcsinh(t); build one order higher so the quotient lands on order.
    return Series.x(order + 1).divide_by(_arcsinh(order + 1))


_PLAIN_BUILTINS = {
    "arcsinh": _arcsinh,
    "log1p": _log1p,
    "sqrt_1pt2": _sqrt_1pt2,
    "invsqrt_1pt2": _invsqrt_1pt2,
    "inv32_1pt2": _inv32_1pt2,
    "L": _big_l,
}

_PARAMETRIC_BUILTINS = {
    "lif_k": _lif_k,
    "lif2k": _lif2_k,
}


def paper_series(name: str, order: int, k: int | None = None) -> Series:
    """A builtin expansion by its original construction; k only for the lif families."""
    if name in _PARAMETRIC_BUILTINS:
        return _PARAMETRIC_BUILTINS[name](order, k)
    return _PLAIN_BUILTINS[name](order)


# -- classical (level 1) poly-Cauchy numbers --------------------------------------


def level1_by_formula(n: int, k: int = 1) -> Fraction:
    """Classical poly-Cauchy c_n^(k) = sum of (-1)^(n-m) [n, m] / (m+1)^k."""
    return sum(
        (Fraction((-1) ** (n - m) * stirling1(n, m)) / Fraction(m + 1) ** k for m in range(n + 1)),
        Fraction(0),
    )


def level1_by_series(n: int, k: int = 1) -> Fraction:
    """Classical poly-Cauchy c_n^(k) = n! [t^n] lif_k(log(1+t))."""
    return paper_series("lif_k", n, k).compose(paper_series("log1p", n)).egf_coefficient(n)


def series_route_values(egf, k: int = 1) -> list[Fraction]:
    """C_{2n}^(k) for n = 0..len(egf)-1 from the columns of ``arcsinh_power_egf``."""
    numerators, denominator = polycauchy._sum_over_powers(egf, k)
    return [Fraction(x, denominator) for x in numerators]
