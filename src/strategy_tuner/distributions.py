"""Composite parameter distributions and their refinement operators.

Each parameter is a pair of random variables combined as base (+) delta:
the base is a Dirac point holding everything learned so far, the delta is
the stochastic exploration component (Poisson for integers, an
independent Bernoulli per bit for vectors and booleans). Sampling never
falls below the base, so accumulated knowledge is preserved. A
distribution is compiled once into a ``Sampler`` (``compile_sampler``)
that every sample drawn from it reuses.

Refinement has two halves:

* the base moves up the lattice by joining, per alarm, the meet of all
  sampled values whose analysis eliminated that alarm, when the
  refinement rule admits it: ``admitted_joins`` states the meet and the
  rules once, and ``refine_bases`` folds its yields, every parameter in
  one call against one shared result matrix;
* the delta is scaled by the completion-rate factor eta, growing
  exploration when analyses finish and shrinking it when they time out
  (``refine_delta`` / ``scaling_factor``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import compress
from operator import and_, ge, not_
from typing import Callable, Iterator, Sequence

from .errors import InvalidSettingsError, LatticeMismatchError, shown
from .lattice import INT_CEILING, IntVal, LatticeValue, from_key, is_amount, is_count
from .lattice import same_kind, top

#: Cap applied to Poisson rates during refinement so repeated eta > 1
#: scaling cannot diverge.
LAMBDA_CAP = 100_000.0

#: The rules by which ``refine_bases`` admits a column's meet: the paper's,
#: and the contrast rule (``tuner.refinement``).
REFINEMENT_RULES = ("paper", "evidence")


@dataclass(frozen=True, slots=True)
class ParamDistribution:
    """Dirac base point plus exploration delta for one parameter.

    The base's lattice names the delta's family, and ``delta`` holds that
    family's parameters: ``(lam,)``, a Poisson rate, for an integer base;
    and one Bernoulli q per bit, entry i for bit i, for a boolean or
    bit-vector base. Each is an amount (``is_amount``), a q at most 1, stored as a float.
    """

    base: LatticeValue
    delta: tuple[float, ...]

    def __post_init__(self) -> None:
        base, delta = self.base, self.delta
        poisson = isinstance(base, IntVal)
        width = 1 if poisson else base.width
        amounts = type(delta) is tuple and len(delta) == width and all(map(is_amount, delta))
        if not (amounts and (poisson or max(delta) <= 1.0)):
            rule = "finite and nonnegative" if poisson else "which must lie in [0, 1]"
            raise ValueError(
                f"{type(base).__name__} needs a delta tuple of {width} numbers, {rule}, "
                f"got {shown(delta)}"
            )
        object.__setattr__(self, "delta", tuple(map(float, delta)))


#: A source of uniform draws in [0, 1), such as one ``RandomStream.generator`` gives.
DrawSource = Callable[[], float]


#: One parameter's distribution compiled for repeated sampling: ``(fixed,
#: draw)``, exactly one set. ``fixed`` is the sample when the distribution
#: fixes it, so it takes no draw; otherwise ``draw`` maps a draw source to
#: one sample, with the distribution's constants already computed.
Sampler = tuple[LatticeValue | None, Callable[[DrawSource], LatticeValue] | None]

#: Bernoulli parameters whose outcome needs no draw.
_FIXED_Q = frozenset((0.0, 1.0))


def compile_sampler(dist: ParamDistribution) -> Sampler:
    """Compile base (+) delta: saturating add, or pointwise or.

    Every sample dominates the base. A sample is fixed, and takes no
    draw, when the base is already top (an integer at the saturation
    ceiling or above, all ones), when the rate is 0, or when every
    Bernoulli q is 0 or 1: a draw ``u`` lies in [0, 1), so ``u < 1.0``
    always holds and ``u < 0.0`` never does. Otherwise every bit is
    drawn, bit i taking draw i.
    """
    base, delta = dist.base, dist.delta
    if isinstance(base, IntVal):
        start, (lam,) = base.value, delta
        if start >= INT_CEILING or lam == 0:
            return base, None
        count = _poisson_counter(lam)
        return None, lambda random: IntVal(min(start + count(random), INT_CEILING))
    mask, width, make = base.value, base.width, partial(from_key, base)
    if mask == (1 << width) - 1:
        return base, None
    if _FIXED_Q.issuperset(delta):
        return make(mask | sum(1 << i for i, q in enumerate(delta) if q == 1.0)), None
    bits = [(1 << i, q) for i, q in enumerate(delta)]
    return None, lambda random: make(mask | sum([bit for bit, q in bits if random() < q]))


def _poisson_counter(lam: float) -> Callable[[DrawSource], int]:
    """A sampler of Poisson(lam), lam > 0, with the rate's constants computed once.

    Rates below 30 use inversion by sequential search. Rates of 30 and
    above use PTRS, the transformed rejection with squeeze of W. Hörmann,
    "The transformed rejection method for generating Poisson random
    variables" (1993), which costs O(1) expected per draw at any rate;
    inversion costs O(lam), bounded because lam < 30.
    """
    if lam < 30.0:
        p0 = math.exp(-lam)
        # The cdf accumulates to 1 - epsilon; the hard bound guards
        # against a float plateau below u once p underflows.
        limit = int(lam + 40.0 * math.sqrt(lam) + 100.0)

        def inversion(random: DrawSource) -> int:
            u = random()
            p = cdf = p0
            k = 0
            while u > cdf and k < limit:
                k += 1
                p *= lam / k
                cdf += p
            return k

        return inversion

    slam = math.sqrt(lam)
    log_lam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)

    def ptrs(random: DrawSource) -> int:
        while True:
            u = random() - 0.5
            v = 1.0 - random()
            us = 0.5 - abs(u)
            # Squeeze reject, tested before k is formed because us may be
            # 0. It cannot overlap the fast accept (us >= 0.07), so the
            # order changes no draw.
            if us < 0.013 and v > us:
                continue
            k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= v_r:
                return k
            if k < 0:
                continue
            if math.log(v) + log_inv_alpha - math.log(a / (us * us) + b) <= (
                -lam + k * log_lam - math.lgamma(k + 1)
            ):
                return k

    return ptrs


@dataclass(frozen=True)
class ResultMatrix:
    """Per-iteration intermediate results over the iteration's alarm ids.

    ``alarms`` holds the ids (``build_result_matrix`` sorts them).
    ``produced`` holds one row per completed analysis: which of them it
    produced. ``values`` holds one column per parameter, in catalog
    order: the value each row's analysis used.
    """

    alarms: tuple[str, ...]
    produced: tuple[tuple[bool, ...], ...]
    values: tuple[tuple[LatticeValue, ...], ...]

    def __post_init__(self) -> None:
        n, m = len(self.alarms), len(self.produced)
        for i, row in enumerate(self.produced):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} cells, expected {n}")
        for p, column in enumerate(self.values):
            if len(column) != m:
                raise ValueError(f"value column {p} has {len(column)} entries, expected {m}")

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """One ``(eliminators, producers)`` pair of row indices per distinct alarm column.

        ``eliminators`` holds the rows that did not produce the column's
        alarm, ``producers`` the rows that did. Columns with the same cells
        appear once, in order of first appearance.
        """
        indices = range(len(self.produced))
        distinct = dict.fromkeys(zip(*self.produced))
        return tuple(
            (tuple(compress(indices, map(not_, col))), tuple(compress(indices, col)))
            for col in distinct
        )


def admitted_joins(
    matrix: ResultMatrix, bases: Sequence[LatticeValue], rule: str = "paper"
) -> Iterator[tuple[int, int, int | float]]:
    """Yield ``(p, c, key)`` for each meet the rule admits that ``bases[p]`` does not reach.

    ``bases[p]`` is refined against value column ``p``. For each distinct
    alarm column ``c`` of ``matrix.columns``, take the meet of the sampled
    values across all rows that did NOT produce the alarm (the least
    precise setting that still eliminated it), whose order key is ``key``.
    Columns where no row eliminated the alarm contribute nothing.

    * ``"paper"``: every meet except one equal to top.
    * ``"evidence"``: a meet that some row producing the alarm does not
      reach, so that the column contrasts the values that eliminated the
      alarm with one that did not. A column that every row eliminated, or
      whose producers all lie at or above the meet, contributes nothing.
    """
    if rule not in REFINEMENT_RULES:
        raise ValueError(f"refinement rule must be one of {REFINEMENT_RULES}, got {rule!r}")
    if len(bases) != len(matrix.values):
        raise ValueError(f"{len(bases)} bases for {len(matrix.values)} value columns")
    evidence = rule == "evidence"
    for p, (base, values) in enumerate(zip(bases, matrix.values)):
        if not all(same_kind(v, base) for v in values):
            raise LatticeMismatchError(
                f"values of column {p} do not all match the kind of base {base!r}"
            )
        bits = not isinstance(base, IntVal)  # booleans take the mask order
        key_of = [v.value for v in values].__getitem__
        meet_keys = partial(reduce, and_) if bits else min
        at_least = (lambda k, m: k & m == m) if bits else ge
        top_key = top(base).value
        for c, (eliminators, producers) in enumerate(matrix.columns):
            if not eliminators:
                continue
            lowest = meet_keys(map(key_of, eliminators))
            if evidence:
                # some producer is not >= the meet exactly when the producers' meet is not
                admitted = producers and not at_least(meet_keys(map(key_of, producers)), lowest)
            else:
                admitted = lowest != top_key
            if admitted and not at_least(base.value, lowest):
                yield p, c, lowest


def refine_bases(
    matrix: ResultMatrix, bases: Sequence[LatticeValue], rule: str = "paper"
) -> tuple[LatticeValue, ...]:
    """Join into each base every meet ``admitted_joins`` yields for it; unmoved bases are kept."""
    keys = [base.value for base in bases]
    for p, _, key in admitted_joins(matrix, bases, rule):
        keys[p] = max(keys[p], key) if isinstance(bases[p], IntVal) else keys[p] | key
    return tuple(b if k == b.value else from_key(b, k) for b, k in zip(bases, keys))


def refine_delta(dist: ParamDistribution, eta: float) -> tuple[float, ...]:
    """Scale exploration by eta: lam * eta (capped at LAMBDA_CAP), q -> 1 - (1-q)^eta per q."""
    if not (eta > 0.0):
        raise ValueError(f"scaling factor must be positive, got {eta!r}")
    if isinstance(dist.base, IntVal):
        return (min(dist.delta[0] * eta, LAMBDA_CAP),)
    return tuple(1.0 - (1.0 - q) ** eta for q in dist.delta)


def scaling_factor(completed: int, num_sample: int) -> float:
    """eta = 2 * completion_rate + 1 / num_sample."""
    if not is_count(num_sample, 1):
        raise InvalidSettingsError(f"num_sample must be positive, got {shown(num_sample)}")
    if not (0 <= completed <= num_sample):
        raise ValueError(f"completed must lie in [0, {num_sample}], got {completed}")
    return 2.0 * (completed / num_sample) + 1.0 / num_sample

