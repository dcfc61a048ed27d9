"""Exact ideal arithmetic over six decidable semiring instances.

The six instances; ``instance(id)`` returns the one object of the
instance's kind class, which carries its flags (``semidomain``, ``dedekind``)
and its payload arithmetic:

  n0                  naturals under + and *; ideals are numerical-monoid style
  gcd                 naturals under gcd and *; ideals are principal
  gcd-supported(P)    gcd restricted to P-smooth numbers
  dvs                 discrete valuation: powers of one prime t
  lagrassa            a three-element semiring that is not a semidomain
  quad5               the ideals of Z[w], w*w = -5, as a semiring

On top of them: one ideal type, ``Ideal``, for the finitely generated
ideals, integral and fractional (over the semifield of fractions), with
exact lattice and semiring operations, quotients and inverses; unique
factorization into primes, localization, polynomial content formulas, and a
law checker that checks each law on the first tuples of an instance's
ideals, listed by size, and reports the least failing tuple in that order.
"""

from .content import content, dm_exponent, gaussian_check, m_cancellation_check
from .errors import (
    DMCapExceeded,
    EmptyIdeal,
    InstanceMismatch,
    InternalError,
    NotAMember,
    NotFractional,
    NotMaximal,
    NotPrime,
    OutOfSupport,
    ParseError,
    SemidealError,
    TooLarge,
    UnknownLaw,
    UnknownPrime,
    Unsupported,
    ZeroDivisorIdeal,
)
from .exprparse import eval_expr, parse_expr, unparse
from .fractional import (
    ExponentVector,
    divisors_containing,
    finite_spec_principal_generator,
    inversion_witness,
    localize,
    sandwich,
    two_generators,
    uft_compose,
    uft_factor,
)
from .ideals import (
    Ideal,
    divides,
    generators,
    ideal_contains,
    ideal_equals,
    ideal_from_generators,
    ideal_intersect,
    ideal_invert,
    ideal_membership,
    ideal_power,
    ideal_product,
    ideal_quotient,
    ideal_str,
    ideal_sum,
    is_integral,
    is_maximal,
    is_prime,
    is_subtractive,
    is_zero,
    min_nonzero,
    search_between,
    separating_member,
    unit_ideal,
    zero_ideal,
)
from .instances import Element, element, element_op, instance, one, zero
from .laws import LAW_IDS, check_law
from .polynomials import Polynomial, poly, poly_mul, poly_str
from .reports import ContentReport, LawReport
from .spectrum import PrimeLabel, krull_dimension, label_from_text, spectrum

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
