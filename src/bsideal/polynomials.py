"""Sparse multivariate polynomials over the rationals.

Coefficients are `int` where they are integral and `fractions.Fraction`
only where they are not (the content/primitive-part view of Geddes,
Czapor and Labahn, *Algorithms for Computer Algebra*, ch. 2): F, its
powers and its derivatives stay integral, and a `Fraction` is made only
where a division really happens.  Exponent vectors are tuples of
nonnegative ints, and every operation is exact.  Nothing in this package
ever touches floating point; `int / int` is never written, because in
Python it is a float.

The fixed monomial order used for leading terms, display, and every
canonical tie-break is graded lexicographic: compare total degree first,
then the exponent tuple lexicographically.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add
from typing import Iterator, Mapping, Sequence

Exponents = tuple[int, ...]
Scalar = int | Fraction


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def primitive(values: Sequence[Scalar]) -> tuple[Fraction, tuple[int, ...]]:
    """The content and primitive part of a vector of rationals: a positive
    content c and coprime ints with values[i] == c * ints[i], signs kept.
    An all-zero or empty vector gives (1, its zeros)."""
    den = lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*nums)
    if not g:
        return Fraction(1), tuple(nums)
    return Fraction(g, den), tuple(x // g for x in nums)


def _coerce(c: Scalar) -> Scalar:
    """c as an int when it is integral (bools included), else the Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
    return int(c) if c.denominator == 1 else c


class MPoly:
    """Immutable sparse polynomial in a fixed number of variables.

    ``terms`` maps exponent tuples to nonzero int or Fraction coefficients.
    The constructor normalizes: zero coefficients are dropped, integral
    coefficients (an integral Fraction or a bool) are stored as int,
    exponent tuples are length-checked.  Sums, products and derivatives of
    int coefficients stay int; arithmetic that involves a Fraction may leave
    an integral Fraction, which compares, hashes and prints as the int it
    equals.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[Exponents, Scalar] = {}
        if terms:
            # the keys of a mapping stay distinct under tuple()
            for exps, c in terms.items():
                e = tuple(exps)
                if len(e) != nvars or any(x < 0 or not isinstance(x, int) for x in e):
                    raise ValueError(f"bad exponent tuple {e!r} for {nvars} variables")
                if c := _coerce(c):
                    clean[e] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise IndexError("variable index out of range")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], c: Scalar = 1) -> "MPoly":
        return cls(nvars, {tuple(exps): c})

    # -- predicates and accessors ------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.nvars, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- ring operations ---------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                del acc[e]
        return MPoly._raw(self.nvars, acc)

    def __neg__(self) -> "MPoly":
        return MPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return MPoly(self.nvars)
            return MPoly._raw(self.nvars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        # a one-term operand only shifts the other's exponents, and a
        # product of nonzero coefficients is nonzero
        mono, rest = (other, self) if len(other.terms) == 1 else (self, other)
        if len(mono.terms) == 1:
            ((e2, c2),) = mono.terms.items()
            return MPoly._raw(
                self.nvars,
                {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in rest.terms.items()},
            )
        acc: dict[Exponents, Scalar] = {}
        get = acc.get
        rhs = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        return MPoly._raw(self.nvars, {e: c for e, c in acc.items() if c})

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponents, Scalar]) -> "MPoly":
        p = cls.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    # -- calculus and reindexing -------------------------------------

    def derivative(self, i: int) -> "MPoly":
        acc: dict[Exponents, Scalar] = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                acc[tuple(d)] = c * e[i]
        return MPoly._raw(self.nvars, acc)

    def embed(self, new_nvars: int, mapping: Sequence[int]) -> "MPoly":
        """Reindex variables: old variable i becomes mapping[i]."""
        if len(mapping) != self.nvars:
            raise ValueError("mapping length mismatch")
        if len(set(mapping)) != len(mapping):
            raise ValueError("mapping must be injective")
        acc: dict[Exponents, Scalar] = {}
        for e, c in self.terms.items():
            ne = [0] * new_nvars
            for i, k in enumerate(e):
                ne[mapping[i]] = k
            acc[tuple(ne)] = c
        return MPoly._raw(new_nvars, acc)

    def top_form(self) -> "MPoly":
        """Homogeneous part of highest total degree."""
        d = self.total_degree()
        return MPoly._raw(
            self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def __repr__(self) -> str:  # debug only; canonical text uses format_poly
        return f"MPoly({self.nvars}, {dict(self.sorted_terms())!r})"


# ---------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------


def format_poly(p: MPoly, names: Sequence[str]) -> str:
    """Render p canonically: terms in descending graded lex order,
    coefficients as reduced fractions, explicit '*' and '^'."""
    if len(names) != p.nvars:
        raise ValueError("need one name per variable")
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for e, c in p.sorted_terms():
        factors = [
            (names[i] if k == 1 else f"{names[i]}^{k}")
            for i, k in enumerate(e)
            if k > 0
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def _is_digit(ch: str) -> bool:
    """ASCII 0-9 only: str.isdigit also accepts '²', which int() rejects."""
    return "0" <= ch <= "9"


# The parser refuses a product or power whose result may take more than
# this many coefficient bits (terms times bits per coefficient, both
# bounded before multiplying): (x+y+z)^45 fits, (x+y+z)^50 and 9^30000
# do not.  The CLI holds the twisted power f^a and what a resolution graph
# expands to the same rule.
MAX_PARSE_BITS = 100_000


def exceeds_parse_bits(terms: int, log_height: int) -> bool:
    """Whether terms coefficients of at most log_height + 2 bits each may
    take more than MAX_PARSE_BITS."""
    return terms * (log_height + 2) > MAX_PARSE_BITS


def _log_height(p: MPoly) -> int:
    """ceil(log2 h(p)), where h(p) = D * sum |D c| over the coefficients c
    of p and D is their common denominator.  Each coefficient's numerator
    and denominator together take at most this plus 2 bits, and
    h(pq) <= h(p) h(q)."""
    cs = p.terms.values()
    d = lcm(*(c.denominator for c in cs))
    return (d * sum(abs(c.numerator) * (d // c.denominator) for c in cs) - 1).bit_length()


def power_size(p: MPoly, k: int) -> tuple[int, int]:
    """Bounds on the number of terms and the log height of p^k."""
    n = len(p.terms)
    # p^k has at most C(n+k-1, k) terms, which is at least k+1 for n > 1
    terms = 1 if n < 2 else comb(n + k - 1, k) if k < MAX_PARSE_BITS else k + 1
    return terms, k * _log_height(p)


class PolyParseError(ValueError):
    """Raised when an expression cannot be parsed."""


class _Parser:
    """Recursive-descent parser for the expression grammar:

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

    Division is only allowed by nonzero constants.
    """

    def __init__(self, text: str, names: Sequence[str]):
        self.text = text
        self.pos = 0
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(names)}
        self.nvars = len(names)

    def error(self, msg: str) -> PolyParseError:
        return PolyParseError(f"{msg} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> MPoly:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return p

    def expr(self) -> MPoly:
        p = self.term()
        while True:
            if self.take("+"):
                p = p + self.term()
            elif self.take("-"):
                p = p - self.term()
            else:
                return p

    def term(self) -> MPoly:
        p = self.unary()
        while True:
            if self.take("*"):
                q = self.unary()
                self.check_size(len(p.terms) * len(q.terms), _log_height(p) + _log_height(q))
                p = p * q
            elif self.take("/"):
                q = self.unary()
                if not q.is_constant() or q.is_zero():
                    raise self.error("division only by nonzero constants")
                p = p * Fraction(1, q.constant_value())
            else:
                return p

    def unary(self) -> MPoly:
        if self.take("-"):
            return -self.unary()
        return self.power()

    def power(self) -> MPoly:
        p = self.atom()
        if not self.take("^"):
            return p
        k = self.integer()
        self.check_size(*power_size(p, k))
        return p**k

    def check_size(self, terms: int, log_height: int) -> None:
        if exceeds_parse_bits(terms, log_height):
            raise self.error(f"result may exceed {MAX_PARSE_BITS} coefficient bits")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if start == self.pos:
            raise self.error("expected integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # more digits than int() converts
            raise self.error("integer has too many digits") from exc

    def atom(self) -> MPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            if not self.take(")"):
                raise self.error("expected ')'")
            return p
        if _is_digit(ch):
            return MPoly.const(self.nvars, self.integer())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in self.index:
                raise PolyParseError(
                    f"unknown variable {name!r} (have {self.names}) in {self.text!r}"
                )
            return MPoly.variable(self.nvars, self.index[name])
        raise self.error("unexpected character")


def parse_poly(text: str, names: Sequence[str]) -> MPoly:
    try:
        return _Parser(text, names).parse()
    except RecursionError as exc:  # the parser recurses once per nesting level
        raise PolyParseError(f"expression nested too deeply in {text[:40]!r}...") from exc


def s_names(r: int) -> list[str]:
    """Canonical names for the auxiliary variables: s for one, s1..sr otherwise."""
    if r == 1:
        return ["s"]
    return [f"s{i + 1}" for i in range(r)]


def iter_monomials(nvars: int, max_degree: int) -> Iterator[Exponents]:
    """All exponent tuples of total degree <= max_degree, ascending graded lex.

    Generated lazily, degree by degree and lexicographically within a
    degree, so a caller that stops early pays only for what it consumed.
    """

    def of_degree(remaining: int, total: int) -> Iterator[Exponents]:
        # tuples of length `remaining` summing to `total`, ascending lex
        if remaining == 1:
            yield (total,)
            return
        for k in range(total + 1):
            for rest in of_degree(remaining - 1, total - k):
                yield (k,) + rest

    if nvars == 0:
        if max_degree >= 0:
            yield ()
        return
    for d in range(max_degree + 1):
        yield from of_degree(nvars, d)
