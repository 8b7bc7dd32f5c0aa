"""Sparse multivariate polynomials over the rationals.

Coefficients are `int` where they are integral and `fractions.Fraction`
only where they are not (the content/primitive-part view of Geddes,
Czapor and Labahn, *Algorithms for Computer Algebra*, ch. 2): F, its
powers and its derivatives stay integral, and a `Fraction` is made only
where a division really happens.  Every operation is exact.  Nothing in
this package ever touches floating point; `int / int` is never written,
because in Python it is a float.

The fixed monomial order used for leading terms, display, and every
canonical tie-break is graded lexicographic: compare total degree first,
then the exponent tuple lexicographically.

`MPoly` keys each term by one packed int (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): the total degree in the top field, then e_0 .. e_(n-1) in fields of
w bits each.  While every degree is below 2^w no field carries, so a
monomial product is one int addition, a derivative one subtraction, and
int order on the keys is graded lex order.  w is 32 unless the
polynomial's own degree needs more; each polynomial carries a bound on its
degree, so an operation picks the width of its result in O(1) and brings
both operands to it.  A wide polynomial settles on the width of its true
degree, so equal polynomials have equal keys however they were built.
`MPoly.terms` is the same map keyed by exponent tuples, a read-only view
built on first use, for the code that reads exponents one by one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import attrgetter
from struct import Struct
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


_setattr = object.__setattr__  # bypasses the guards, one lookup cheaper


class Record:
    """Immutable value with named fields, built positionally.

    A subclass lists its fields (two or more) in ``__slots__``, and
    ``_values`` reads them all as a tuple unless the subclass sets its own
    ``_values`` property to read a chosen subset, so that fields derived
    from the others or caches stay out.  It may override ``_check`` to
    validate the fields after they are set, and to rewrite them into
    canonical form through ``_setattr``.  Equality, hashing and ``<`` use
    ``_values`` and hold only between objects of one class, so a record
    hashes as that tuple does.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "_values" not in vars(cls):
            cls._values = property(attrgetter(*cls.__slots__))

    def __init__(self, *values):
        for name, v in zip(self.__slots__, values, strict=True):
            _setattr(self, name, v)
        self._check()

    def _check(self) -> None:
        pass

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __lt__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values < other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _coerce(c: Scalar) -> Scalar:
    """c as an int when it is integral (bools included), else the Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
    return int(c) if c.denominator == 1 else c


# Bits per exponent field of a packed key, unless a degree needs more.
_W = 32


def _width(deg: int) -> int:
    """The field width for total degree (or degree bound) deg: _W, or the
    bit length of deg when it does not fit."""
    return _W if deg < 1 << _W else deg.bit_length()


def _pack(exps: Iterable[Sequence[int]], w: int) -> list[int]:
    """The key of each exponent vector e: deg(e), then e_0 .. e_(n-1), w
    bits each."""
    keys = []
    for e in exps:
        k = sum(e)
        for x in e:
            k = k << w | x
        keys.append(k)
    return keys


# n -> the unpacker of the n exponent fields of a 32-bit key's bytes
_FIELDS: dict[int, Callable[[bytes], Exponents]] = {}


def _unpack(keys: Iterable[int], n: int, w: int) -> list[Exponents]:
    """The exponent vectors of keys with n fields of w bits, in order."""
    if w == _W:  # the degree fits a 32-bit field as well, and is skipped
        fields = _FIELDS.get(n)
        if fields is None:
            fields = _FIELDS[n] = Struct(f">4x{n}I").unpack
        size = 4 * n + 4
        return [fields(k.to_bytes(size, "big")) for k in keys]
    mask, shifts = (1 << w) - 1, range(w * (n - 1), -1, -w)
    return [tuple([k >> s & mask for s in shifts]) for k in keys]


def _repack(packed: dict[int, Scalar], n: int, v: int, w: int) -> dict[int, Scalar]:
    """packed, with keys of field width v, at field width w."""
    return dict(zip(_pack(_unpack(packed, n, v), w), packed.values()))


class MPoly:
    """Immutable sparse polynomial in a fixed number of variables.

    The terms are a dict from packed keys (`_pack`) to nonzero int or
    Fraction coefficients, with a field width `_w` and a bound `_deg` on the
    total degree.  ``terms`` is the same dict keyed by exponent tuples, a
    read-only view built on first use.  The constructor takes that form and
    normalizes: zero coefficients are dropped, integral coefficients (an
    integral Fraction or a bool) are stored as int, exponent tuples are
    length-checked.  Sums, products and derivatives of int coefficients stay
    int; arithmetic that involves a Fraction may leave an integral Fraction,
    which compares, hashes and prints as the int it equals.
    """

    __slots__ = ("nvars", "_packed", "_w", "_deg", "_view")

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
        deg = max(map(sum, clean), default=-1)
        w = _width(deg)
        _setattr(self, "nvars", nvars)
        _setattr(self, "_packed", dict(zip(_pack(clean, w), clean.values())))
        _setattr(self, "_w", w)
        _setattr(self, "_deg", deg)
        _setattr(self, "_view", MappingProxyType(clean))

    @classmethod
    def _raw(cls, nvars: int, packed: dict[int, Scalar], w: int, deg: int) -> "MPoly":
        """Wrap packed terms: keys of width w, nonzero coefficients, total
        degree at most deg, and deg < 2^w.  A wide w settles on the width
        of the true degree, so equal polynomials share their keys."""
        if w != _W:
            deg = max(packed) >> (nvars * w) if packed else -1
            if (v := _width(deg)) != w:
                packed, w = _repack(packed, nvars, w, v), v
        p = cls.__new__(cls)
        _setattr(p, "nvars", nvars)
        _setattr(p, "_packed", packed)
        _setattr(p, "_w", w)
        _setattr(p, "_deg", deg)
        _setattr(p, "_view", None)
        return p

    def _at(self, w: int) -> dict[int, Scalar]:
        """The packed terms at field width w >= self._w."""
        if w == self._w:
            return self._packed
        return _repack(self._packed, self.nvars, self._w, w)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("MPoly is immutable")

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        """The terms keyed by exponent tuples, read-only."""
        view = self._view
        if view is None:
            packed = self._packed
            exps = _unpack(packed, self.nvars, self._w)
            view = MappingProxyType(dict(zip(exps, packed.values())))
            _setattr(self, "_view", view)
        return view

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "MPoly":
        c = _coerce(c)
        return cls._raw(nvars, {0: c} if c else {}, _W, 0)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise IndexError("variable index out of range")
        return cls._raw(nvars, {1 << (nvars * _W) | 1 << (_W * (nvars - 1 - i)): 1}, _W, 1)

    # -- predicates and accessors ------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self) -> bool:
        return bool(self._packed)

    def is_constant(self) -> bool:
        return not any(self._packed)  # the constant term is key 0

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._packed.get(0, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._packed:
            return -1
        return max(self._packed) >> (self.nvars * self._w)

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in descending graded lexicographic order."""
        keys = sorted(self._packed, reverse=True)
        exps = _unpack(keys, self.nvars, self._w)
        return list(zip(exps, map(self._packed.__getitem__, keys)))

    # -- ring operations ---------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._packed == other._packed

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._packed.items())))

    def __add__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        deg = max(self._deg, other._deg)
        w = _width(deg)
        acc = dict(self._at(w))
        for k, c in other._at(w).items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return MPoly._raw(self.nvars, acc, w, deg)

    def __neg__(self) -> "MPoly":
        return MPoly._raw(
            self.nvars, {k: -c for k, c in self._packed.items()}, self._w, self._deg
        )

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
            return MPoly._raw(
                self.nvars, {k: x * c for k, x in self._packed.items()}, self._w, self._deg
            )
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        # a key sum is the key of the exponent sum while deg < 2^w
        deg = self._deg + other._deg
        w = _width(deg)
        # a one-term operand only shifts the other's exponents, and a
        # product of nonzero coefficients is nonzero; times the constant 1,
        # the other operand is returned as it is
        mono, rest = (other, self) if len(other._packed) == 1 else (self, other)
        if len(mono._packed) == 1:
            ((k2, c2),) = mono._at(w).items()
            if c2 == 1 and not k2:
                return rest
            terms = {k1 + k2: c1 * c2 for k1, c1 in rest._at(w).items()}
            return MPoly._raw(self.nvars, terms, w, deg)
        acc: dict[int, Scalar] = {}
        get = acc.get
        rhs = list(other._at(w).items())
        for k1, c1 in self._at(w).items():
            for k2, c2 in rhs:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return MPoly._raw(self.nvars, {k: c for k, c in acc.items() if c}, w, deg)

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

    # -- calculus and reindexing -------------------------------------

    def derivative(self, i: int) -> "MPoly":
        n, w = self.nvars, self._w
        if not 0 <= i < n:
            raise IndexError("variable index out of range")
        shift = w * (n - 1 - i)
        unit, mask = 1 << (n * w) | 1 << shift, (1 << w) - 1
        acc: dict[int, Scalar] = {}
        for k, c in self._packed.items():
            if e := k >> shift & mask:
                acc[k - unit] = c * e
        return MPoly._raw(n, acc, w, self._deg - 1)

    def padded(self, before: int, after: int) -> "MPoly":
        """The same polynomial with `before` new variables ahead of its own
        and `after` behind them."""
        n, w = self.nvars, self._w
        total = before + n + after
        low, top, shift = (1 << (n * w)) - 1, total * w, after * w
        terms = {
            (k >> (n * w)) << top | (k & low) << shift: c for k, c in self._packed.items()
        }
        return MPoly._raw(total, terms, w, self._deg)

    def top_form(self) -> "MPoly":
        """Homogeneous part of highest total degree."""
        d = self.total_degree()
        floor = d << (self.nvars * self._w)  # the keys of degree d and up
        return MPoly._raw(
            self.nvars, {k: c for k, c in self._packed.items() if k >= floor}, self._w, d
        )

    def __repr__(self) -> str:  # debug only; canonical text uses format_poly
        return f"MPoly({self.nvars}, {dict(self.sorted_terms())!r})"


# ---------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------


def scalar_text(c: Scalar) -> str:
    """str(c), in full also where c has more digits than the interpreter
    converts at once (sys.get_int_max_str_digits, at least 640)."""
    try:
        return str(c)
    except ValueError:
        pass
    if c.denominator != 1:
        return f"{scalar_text(c.numerator)}/{scalar_text(c.denominator)}"
    n, unit = abs(int(c)), 10**500
    chunks = []  # 500 digits each, lowest first
    while n >= unit:
        n, low = divmod(n, unit)
        chunks.append(f"{low:0500d}")
    return "-" * (c < 0) + str(n) + "".join(reversed(chunks))


def format_poly(p: MPoly, names: Sequence[str]) -> str:
    """Render p canonically: terms in descending graded lex order,
    coefficients as reduced fractions, explicit '*' and '^'."""
    if len(names) != p.nvars:
        raise ValueError("need one name per variable")
    return format_terms(p.sorted_terms(), names)


def format_terms(terms: Sequence[tuple[Exponents, Scalar]], names: Sequence[str]) -> str:
    """The text of format_poly for nonzero terms in descending graded lex
    order, each an exponent tuple and its coefficient.  It is the one
    printer of monomials: operators, torus cosets and zeta factors print
    theirs through it, and it prints every nonzero exponent, negative ones
    (a torus character's) too."""
    if not terms:
        return "0"
    chunks: list[str] = []
    for e, c in terms:
        factors = [
            (names[i] if k == 1 else f"{names[i]}^{scalar_text(k)}")
            for i, k in enumerate(e)
            if k
        ]
        mag = abs(c)
        if not factors:
            body = scalar_text(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([scalar_text(mag)] + factors)
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
    cs = p._packed.values()
    d = lcm(*(c.denominator for c in cs))
    return (d * sum(abs(c.numerator) * (d // c.denominator) for c in cs) - 1).bit_length()


def power_size(p: MPoly, k: int) -> tuple[int, int]:
    """Bounds on the number of terms and the log height of p^k."""
    n = len(p._packed)
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
                self.check_size(len(p._packed) * len(q._packed), _log_height(p) + _log_height(q))
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
