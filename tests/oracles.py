"""Reference solvers the tests hold the package's own solves to.

The bisection here shares no code with ``foglink.pa.optimal_ibo``: it uses
only the sign of ``f`` and halves the bracket until it is ``tol`` wide.
"""

from foglink import BracketError, ConvergenceError, DomainError


def solve_bisection(f, lo, hi, *, tol=1e-12, max_iter=200):
    """Root of ``f`` on [lo, hi]; returns once the interval width is <= tol.

    Requires f(lo) and f(hi) to differ in sign, otherwise BracketError.
    The returned root always lies inside the original bracket.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"bracket must satisfy lo < hi, got [{lo!r}, {hi!r}]")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo) = {flo!r}, f(hi) = {fhi!r}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    raise ConvergenceError(
        f"bisection interval still {hi - lo!r} wide after {max_iter} iterations"
    )
