"""Closed formulas for the order of the Polya group of a biquadratic field,
assembled from the unit structure and the ramification profile.

With s_K ramified primes, i2 the flag for 2 being totally ramified, q the
unit index, nu_K the number of real quadratic subfields whose fundamental
unit has norm +1, and j2 the flag for 2 being totally ramified with the
class of the prime above 2 outside the image of the subfield ambiguous
classes:

  |Po(k_i)|   = 2**(s_i - 1 - nu_i)                    (quadratic subfields)
  |cokernel|  = 2**j2
  |kernel|    = prod_p e_p / q          if K real and nu_K = 0
              = prod_p e_p / (2 q)      otherwise
  |Po(K)|     = q * 2**(s_K + j2 - 2 - max(1, nu_K))   if K real
              = q * 2**(s_K + j2 - 2 - nu_K)           if K imaginary

j2 is solved from the unit group, with no ideal.  For Galois K/Q the exact
sequence 0 -> H^1(G, O_K^x) -> sum_p Z/e_p -> Po(K) -> 0 (H. Zantema,
"Integer valued polynomials over a number field", Manuscripta Math. 40,
1982) gives |Po(K)| * |H^1(G, O_K^x)| = prod_p e_p = 2**(s_K + i2), so
j2 = i2 + 2 + drop - log2(q) - log2|H^1(G, O_K^x)|, drop = max(1, nu_K)
(real) or nu_K (imaginary); units.unit_cohomology_order computes |H^1|.

polya_report returns the printed row, an OutputRecord, which checks on
construction that |Po(K)| and prod|Po(k_i)| * |cokernel| / |kernel| agree
and that the chain of subgroups between the rational principal ideals and
the ambiguous ideals telescopes to 2**s_K, so a silent inconsistency
upstream (a wrong q, a wrong profile, a wrong |H^1|) cannot produce a row.
"""

from __future__ import annotations

from .biquadratic import BiquadField
from .errors import InconsistencyError
from .intmath import is_power_of_two
from .lattice import AmbiguousIdealOracle
from .quadratic import ambiguous_oracle_quad, polya_order_quad
from .report import OutputRecord
from .units import unit_cohomology_order


def _times_power_of_two(n: int, e: int, what: str) -> int:
    """n * 2**e, raising unless it is a positive integer."""
    if n < 1 or (e < 0 and n % (1 << -e)):
        raise InconsistencyError(f"{what} is not a positive integer: {n} * 2^{e}")
    return n << e if e >= 0 else n >> -e


def _drop(K: BiquadField) -> int:
    nu = K.units.nu_k
    return max(1, nu) if K.is_real else nu


def j2_value(K: BiquadField) -> int:
    """1 iff 2 is totally ramified and the class of the prime above 2 lies
    outside the image of the subfield ambiguous classes; solved from
    |H^1(G, O_K^x)| as the module docstring says."""
    if K.profile.i2 == 0:
        return 0
    h1 = unit_cohomology_order(K)
    log_h1, log_q = h1.bit_length() - 1, K.units.q_k.bit_length() - 1
    j2 = K.profile.i2 + 2 + _drop(K) - log_q - log_h1
    if not is_power_of_two(h1) or j2 not in (0, 1):
        raise InconsistencyError(f"|H^1(G, O_K^x)| = {h1} gives j2 = {j2} for {K.d}")
    return j2


def kernel_order(K: BiquadField) -> int:
    """Order of the kernel of the class-extension map from the three
    subfield ambiguous-class groups."""
    us, prof = K.units, K.profile
    den = us.q_k if (K.is_real and us.nu_k == 0) else 2 * us.q_k
    if prof.product_e % den:
        raise InconsistencyError(
            f"kernel order is not integral for {K.d}: {prof.product_e}/{den}")
    return prof.product_e // den


def _chain_indices(K: BiquadField, ker: int, po_sub_prod: int) -> tuple[int, int, int, int]:
    """Indices ((H3:H0), (H2:H1), (H1:H0), (H3:H2)) of the subgroup chain
    between extended rational principal ideals H0 and ambiguous products H3,
    with H1 the ideals generated by square roots of rationals and H2 the
    principal ambiguous products, from q, lambda and mu_K.  OutputRecord
    checks that the product telescopes to 2**s_K."""
    us, prof = K.units, K.profile
    h30 = 2 ** prof.s_k
    has_i = us.mu_order % 4 == 0
    # (O_k1^x O_k2^x O_k3^x : O*_K) = 2**#{lambda_i = -1}, halved when all
    # three are -1; O*_K is the norm-one / totally-signed unit subgroup
    sub_over_star = 2 ** min(2, us.lam.count(-1))
    units_over_star = us.q_k * sub_over_star                  # (O_K^x : O*_K)
    pm_squares = 8 if K.is_real else (4 if has_i else 2)     # (O_K^x : +-(O_K^x)^2)
    if pm_squares % units_over_star:
        raise InconsistencyError(
            f"(O*:+-squares) is not integral for {K.d}: "
            f"{pm_squares}/{units_over_star}")
    h21 = pm_squares // units_over_star                       # (O*_K : +-(O_K^x)^2)
    if h21 not in (1, 2, 4, 8):
        raise InconsistencyError(f"(O*:+-squares) = {h21} for {K.d}")
    h10 = 2 if has_i else 4
    shift = 5 if K.is_real else 3
    h32 = _times_power_of_two(units_over_star, prof.s_k - shift,
                              f"(H3:H2) for {K.d}")
    if po_sub_prod % h32 or po_sub_prod // h32 != ker:
        raise InconsistencyError(
            f"kernel order via the chain disagrees with the closed formula for {K.d}")
    return h30, h21, h10, h32


def polya_report(K: BiquadField) -> OutputRecord:
    """The field's output row, status "unchecked": every order and index
    computed once and written once; no ideal is built."""
    us, prof = K.units, K.profile
    k1, k2, k3 = K.subfields
    j2 = j2_value(K)
    ker = kernel_order(K)
    po1, po2, po3 = (polya_order_quad(k) for k in K.subfields)
    h30, h21, h10, h32 = _chain_indices(K, ker, po1 * po2 * po3)
    # |Po(K)| by the closed formula; OutputRecord checks it against the
    # kernel / cokernel decomposition
    po_k = _times_power_of_two(us.q_k, prof.s_k + j2 - 2 - _drop(K),
                               f"the Polya order formula for {K.d}")
    # by position, in the order of OutputRecord._fields
    return OutputRecord(
        k1.d, k2.d, k3.d, k1.delta, k2.delta, k3.delta,
        k1.s, k2.s, k3.s, prof.s_k, prof.i2, prof.e2, j2,
        us.q_k, us.mu_order, *us.lam, us.nu_k,
        po1, po2, po3, ker, 2 ** j2, po_k,
        h30, h21, h10, h32, "unchecked")


def verify_biquad(K: BiquadField, rep: OutputRecord,
                  oracle: AmbiguousIdealOracle | None = None) -> tuple[str, dict]:
    """Compare |Po(K)|, the kernel and the cokernel of the row
    rep = polya_report(K) against the brute-force oracle (a fresh one when
    none is given).

    Returns ("ok" | "mismatch", details); budget exhaustion propagates as
    BudgetExceededError rather than being folded into a verdict.
    """
    orc = oracle if oracle is not None else AmbiguousIdealOracle(K)
    po, ker, coker = (orc.polya_order_oracle(), orc.kernel_order_oracle(),
                      orc.cokernel_order_oracle())
    details = {"po_oracle": po, "ker_oracle": ker, "coker_oracle": coker,
               "po_formula": rep.po_k, "ker_formula": rep.ker, "coker_formula": rep.coker}
    ok = (po, ker, coker) == (rep.po_k, rep.ker, rep.coker)
    return ("ok" if ok else "mismatch"), details


def verify_quad(k, budget=None) -> tuple[str, dict]:
    """Compare 2**(s-1-nu) against the oracle's ambiguous-class count; no
    budget means no limit."""
    formula = polya_order_quad(k)
    oracle = ambiguous_oracle_quad(k, budget)
    return ("ok" if formula == oracle else "mismatch"), {
        "po_formula": formula, "po_oracle": oracle}
