"""Exact scalar arithmetic: prime fields F_p and the rationals.

Scalars are plain Python objects (ints reduced mod p, or fractions.Fraction),
so equality is exact and hashable.  A field object only bundles the operations;
it never wraps the scalars themselves.
"""

from __future__ import annotations

from fractions import Fraction

PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981  # psi_13 (Sorenson and Webster, Math. Comp. 2017)


def is_prime(p: int) -> bool:
    """Whether p < PRIME_BOUND is prime, exactly: below psi_13 a strong
    probable prime to every base in PRIME_BASES is prime (Miller-Rabin)."""
    if p < 2 or any(p % q == 0 for q in PRIME_BASES):
        return p in PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in PRIME_BASES)


class PrimeField:
    """F_p for a prime p < PRIME_BOUND, its characteristic; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise ValueError(f"modulus at or above {PRIME_BOUND}: primality is not decided")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def reduce_entries(self, row: dict) -> dict:
        """A sparse row {index: int} reduced mod p, its zero entries dropped."""
        p = self.p
        return {j: y for j, x in row.items() if (y := x % p)}

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.p)

    def coerce(self, x):
        """Accept ints, int-valued strings and int-valued Fractions."""
        if isinstance(x, bool):
            raise TypeError("bool is not a field scalar")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            return (num * self.inv(den)) % self.p
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def to_json(self, a):
        return a

    def describe(self):
        return {"prime": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """The rationals via fractions.Fraction (always in lowest terms); characteristic 0."""

    def __init__(self):
        self.characteristic = 0
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def reduce_entries(self, row: dict) -> dict:
        """A sparse row {index: Fraction} with its zero entries dropped."""
        return {j: x for j, x in row.items() if x}

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def coerce(self, x):
        if isinstance(x, bool):
            raise TypeError("bool is not a field scalar")
        if isinstance(x, (int, str, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def to_json(self, a):
        # ints stay ints so instance files stay readable
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def describe(self):
        return "rational"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


def field_from_json(spec):
    """Build a field from its instance-file form: {"prime": p}, p a JSON
    integer (not a bool), or "rational"."""
    if spec == "rational":
        return RationalField()
    if isinstance(spec, dict) and set(spec) == {"prime"} and type(spec["prime"]) is int:
        return PrimeField(spec["prime"])
    raise ValueError(f"unrecognized field spec {spec!r}")
