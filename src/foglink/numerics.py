"""Special functions and scalar root finding.

erfc delegates to the C library through :mod:`math`, as does the
``math.erf`` the amplifier power model calls; the test suite verifies both
against independent series and continued-fraction oracles to an absolute
1e-12 budget, which is what the downstream operating-point solves rely on.
Both solvers work on plain floats; callers convert any dB quantities
before invoking them.  The bisection solver is the reference the tests
hold the guarded Newton solve to.
"""

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional, Tuple

from .errors import BracketError, ConvergenceError, DomainError

__all__ = ["RootSolveReport", "erfc", "solve_newton", "solve_bisection"]


@dataclass(frozen=True)
class RootSolveReport:
    """Result of a scalar root solve.

    residual is |f(root)|;  iterations is the number of accepted steps.
    """

    root: float
    residual: float
    iterations: int
    method: Literal["newton", "bisection"]


def erfc(x: float) -> float:
    """Complementary error function, cancellation-safe for large x.

    Relative accuracy is better than 1e-10 at least up to x = 6, where
    the value has decayed to ~1e-17.
    """
    if not math.isfinite(x):
        raise DomainError(f"erfc requires a finite argument, got {x!r}")
    return math.erfc(x)


def solve_newton(
    f: Callable[[float], float],
    df: Callable[[float], float],
    x0: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 100,
    bracket: Optional[Tuple[float, float]] = None,
) -> RootSolveReport:
    """Newton iteration with an optional bisection safeguard.

    Stops when |f(x)| <= tol.  When a bracket (lo, hi) with a sign change
    is supplied, iterates are kept inside it: any Newton step that would
    leave the current subinterval is replaced by a bisection step, and the
    subinterval shrinks around the root as signs are resolved.  Without a
    bracket this is plain Newton and diverging iterates raise.

    Raises ConvergenceError (carrying the best iterate) if the tolerance
    is not met within max_iter, and BracketError if a supplied bracket
    has no sign change.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    x = float(x0)
    fx = f(x)
    if not (math.isfinite(x) and math.isfinite(fx) and math.isfinite(df(x))):
        raise DomainError(f"f, df must be finite at x0, got f({x0!r}) = {fx!r}")

    lo = hi = flo = None
    if bracket is not None:
        lo, hi = (float(bracket[0]), float(bracket[1]))
        if lo > hi:
            lo, hi = hi, lo
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return RootSolveReport(lo, 0.0, 0, "newton")
        if fhi == 0.0:
            return RootSolveReport(hi, 0.0, 0, "newton")
        if flo * fhi > 0.0:
            raise BracketError(
                f"no sign change on bracket [{lo!r}, {hi!r}]: "
                f"f(lo) = {flo!r}, f(hi) = {fhi!r}"
            )
        x = min(max(x, lo), hi)
        fx = f(x)

    best_x, best_fx = x, abs(fx)
    for iteration in range(1, max_iter + 1):
        if abs(fx) <= tol:
            return RootSolveReport(x, abs(fx), iteration - 1, "newton")
        dfx = df(x)
        step_ok = math.isfinite(dfx) and dfx != 0.0
        if step_ok:
            x_new = x - fx / dfx
            step_ok = math.isfinite(x_new)
        if bracket is not None:
            # shrink the sign-change interval around the current iterate
            if flo * fx <= 0.0:
                hi = x
            else:
                lo, flo = x, fx
            if not step_ok or not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)  # fallback bisection step
        elif not step_ok:
            raise ConvergenceError(
                f"newton step failed at x = {x!r} (df = {dfx!r})",
                best_root=best_x,
                best_residual=best_fx,
                iterations=iteration,
            )
        if x_new == x:
            break  # step underflow, no further progress possible
        x = x_new
        fx = f(x)
        if abs(fx) < best_fx:
            best_x, best_fx = x, abs(fx)
    if best_fx <= tol:
        return RootSolveReport(best_x, best_fx, max_iter, "newton")
    raise ConvergenceError(
        f"newton did not reach |f| <= {tol!r} within {max_iter} iterations "
        f"(best |f| = {best_fx!r} at x = {best_x!r})",
        best_root=best_x,
        best_residual=best_fx,
        iterations=max_iter,
    )


def solve_bisection(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> RootSolveReport:
    """Bisection on [lo, hi]; returns once the interval width is <= tol.

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
        return RootSolveReport(lo, 0.0, 0, "bisection")
    if fhi == 0.0:
        return RootSolveReport(hi, 0.0, 0, "bisection")
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo) = {flo!r}, f(hi) = {fhi!r}"
        )
    for iteration in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return RootSolveReport(mid, 0.0, iteration, "bisection")
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= tol:
            root = 0.5 * (lo + hi)
            return RootSolveReport(root, abs(f(root)), iteration, "bisection")
    root = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"bisection interval still {hi - lo!r} wide after {max_iter} iterations",
        best_root=root,
        best_residual=abs(f(root)),
        iterations=max_iter,
    )
