"""Exact McKay quivers of finite monomial subgroups of SL(3, C).

Everything is integer arithmetic; the skew engine computes in Z[omega],
holding each sum of cube roots of unity as counts over exponents mod 3.
Covered: abelian quotients of Z^2 presented by Hermite normal forms, their
typed three-arrow McKay quivers, cut enumeration and closed-form existence
criteria, skew-group quivers under the residual C3 or S3 action, and the
dual-twist round trip recovering a cut from the skew side.
"""

__version__ = "0.1.0"
