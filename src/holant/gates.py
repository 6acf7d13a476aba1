"""Strong-spatial-mixing parameter gates for the supported models.

Each gate decides a strict inequality between the degree bound and a model
threshold.  Purely rational thresholds are evaluated exactly; thresholds
involving exp/log are evaluated in interval arithmetic with outward rounding,
and "satisfied" is reported only when the inequality holds against the
pessimistic interval endpoint, so a satisfied verdict is never spurious.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidArgumentError

DEFAULT_GATE_PRECISION = 128

# the published constants for the colorings corollary, used verbatim
COLORINGS_ALPHA = Fraction("1.76322")
COLORINGS_GAMMA = Fraction("0.47031")


@dataclass(frozen=True)
class SsmGateReport:
    model: str
    parameters: dict
    threshold: object  # Fraction when exact, (lo, hi) float pair when interval
    satisfied: bool
    form: str
    notes: tuple = ()

    def threshold_str(self) -> str:
        if isinstance(self.threshold, Fraction):
            return f"{self.threshold} ({float(self.threshold):.6g})"
        lo, hi = self.threshold
        return f"[{lo:.12g}, {hi:.12g}]"

    def __repr__(self):
        verdict = "satisfied" if self.satisfied else "not satisfied"
        return f"<gate {self.model}: {verdict}, threshold {self.threshold_str()}>"


def _as_fraction(x, name):
    try:
        return Fraction(x)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{name} must be rational, got {x!r}") from exc


def _iv_fraction(iv, f: Fraction):
    return iv.mpf(f.numerator) / iv.mpf(f.denominator)


class _precision:
    """``mpmath.iv`` at the given precision.  mpmath is imported here, on
    first use, since it is about a third of the time ``import holant`` takes."""

    def __init__(self, bits):
        self.bits = bits

    def __enter__(self):
        import mpmath

        self.iv = mpmath.iv
        self.saved = self.iv.prec
        self.iv.prec = self.bits
        return self.iv

    def __exit__(self, *exc):
        self.iv.prec = self.saved


def gate_subgraphs_world(delta: int, lam, mu) -> SsmGateReport:
    """Mixing gate for the subgraphs world: degree below (1+lam*mu^2)^2/(1-mu^2)."""
    lam = _as_fraction(lam, "lambda")
    mu = _as_fraction(mu, "mu")
    if not (0 < lam < 1) or not (0 < mu < 1):
        raise InvalidArgumentError("subgraphs world gate needs 0 < lambda, mu < 1")
    threshold = (1 + lam * mu * mu) ** 2 / (1 - mu * mu)
    return SsmGateReport(
        model="subgraphs_world",
        parameters={"delta": delta, "lambda": lam, "mu": mu},
        threshold=threshold,
        satisfied=delta < threshold,
        form="delta < (1+lambda*mu^2)^2/(1-mu^2)",
    )


def gate_ising(delta: int, beta, field_b=0, precision: int = DEFAULT_GATE_PRECISION) -> SsmGateReport:
    """Mixing gate for the ferromagnetic Ising model with external field.

    Evaluated in interval arithmetic with outward rounding; the report carries
    both the (beta, B) and the multiplicative (a, b) = (e^{2beta}, e^{2B})
    parameterizations.
    """
    beta = _as_fraction(beta, "beta")
    field_b = _as_fraction(field_b, "B")
    if beta <= 0:
        raise InvalidArgumentError("ising gate needs beta > 0 (ferromagnetic)")
    with _precision(precision) as iv:
        two_beta = _iv_fraction(iv, 2 * beta)
        two_b = _iv_fraction(iv, 2 * field_b)
        a = iv.exp(two_beta)
        b = iv.exp(two_b)
        numerator = (a * b * b + a + 2 * b) ** 2
        denominator = b * (a + 1) ** 2 * (b + 1) ** 2
        threshold = numerator / denominator
        lo = float(threshold.a)
        hi = float(threshold.b)
        satisfied = bool(delta < threshold.a)
        a_mid = (float(a.a) + float(a.b)) / 2
        b_mid = (float(b.a) + float(b.b)) / 2
    return SsmGateReport(
        model="ising",
        parameters={"delta": delta, "beta": beta, "B": field_b},
        threshold=(lo, hi),
        satisfied=satisfied,
        form="delta < (e^{2b+4B}+e^{2b}+2e^{2B})^2 / (e^{2B}(e^{2b}+1)^2(e^{2B}+1)^2)",
        notes=(
            f"equivalent multiplicative parameters a=e^(2beta)={a_mid:.9g}, b=e^(2B)={b_mid:.9g}",
            "equals the subgraphs-world gate at lambda=tanh(beta), mu=tanh(B)",
        ),
    )


def gate_potts(
    delta: int,
    q: int,
    lam=None,
    beta=None,
    precision: int = DEFAULT_GATE_PRECISION,
) -> SsmGateReport:
    """Mixing gate for the ferromagnetic Potts model.

    The lambda form checks q-2 > (lambda-1)(delta-1)lambda^delta exactly; the
    beta convenience form checks the stricter sufficient condition
    beta < ln((q-2)/(delta-1))/(delta+1) with outward rounding.
    """
    if q < 3:
        raise InvalidArgumentError("potts gate needs q >= 3")
    if delta < 2:
        raise InvalidArgumentError("potts gate needs delta >= 2")
    if (lam is None) == (beta is None):
        raise InvalidArgumentError("give exactly one of lambda or beta")
    if lam is not None:
        lam = _as_fraction(lam, "lambda")
        if lam <= 1:
            raise InvalidArgumentError("potts gate is ferromagnetic: lambda > 1")
        rhs = (lam - 1) * (delta - 1) * lam ** delta
        threshold = Fraction(q - 2)
        return SsmGateReport(
            model="potts",
            parameters={"delta": delta, "q": q, "lambda": lam},
            threshold=threshold,
            satisfied=threshold > rhs,
            form="q-2 > (lambda-1)(delta-1)lambda^delta",
            notes=(f"right-hand side = {rhs} ({float(rhs):.6g})",),
        )
    beta = _as_fraction(beta, "beta")
    if beta <= 0:
        raise InvalidArgumentError("potts gate is ferromagnetic: beta > 0")
    with _precision(precision) as iv:
        ratio = _iv_fraction(iv, Fraction(q - 2, delta - 1))
        threshold = iv.log(ratio) / (delta + 1)
        lo = float(threshold.a)
        hi = float(threshold.b)
        satisfied = bool(_iv_fraction(iv, beta) < threshold.a)
    return SsmGateReport(
        model="potts",
        parameters={"delta": delta, "q": q, "beta": beta},
        threshold=(lo, hi),
        satisfied=satisfied,
        form="beta < ln((q-2)/(delta-1))/(delta+1)",
    )


def gate_colorings(delta: int, q: int) -> SsmGateReport:
    """Mixing gate for proper q-colorings on triangle-free graphs: q > alpha*delta - gamma."""
    if q < 2 or delta < 2:
        raise InvalidArgumentError("colorings gate needs q >= 2 and delta >= 2")
    threshold = COLORINGS_ALPHA * delta - COLORINGS_GAMMA
    return SsmGateReport(
        model="colorings",
        parameters={"delta": delta, "q": q},
        threshold=threshold,
        satisfied=q > threshold,
        form="q > alpha*delta - gamma (alpha=1.76322, gamma=0.47031)",
        notes=("the triangle-free hypothesis is not verified by this gate",),
    )
