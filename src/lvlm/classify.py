"""Bayesian image classification over per-class learned models.

Scores are unnormalized log-posteriors (log-prior + evaluation log-score);
softmax normalization is offered for display only, since evaluation is a
score rather than a calibrated likelihood. An image is swept once per
distinct evaluation radius among the bundle's classes, not once per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as core
from .discrete import DiscreteModel, evaluate_discrete
from .errors import InputError
from .lattice import SymbolLattice
from .real import RealModel, evaluate_real


@dataclass(frozen=True)
class ClassEntry:
    label: str
    model: DiscreteModel | RealModel
    log_prior: float


@dataclass(frozen=True)
class ClassifierBundle:
    classes: tuple[ClassEntry, ...] = field()

    def __post_init__(self):
        if not self.classes:
            raise InputError("bundle needs at least one class")
        kinds = {type(c.model) for c in self.classes}
        if len(kinds) > 1:
            raise InputError("all bundle models must share a variant")
        if len({(c.model.M, c.model.d) for c in self.classes}) > 1:
            raise InputError("all bundle models must share M and d")
        if any(not np.isfinite(c.log_prior) for c in self.classes):
            raise InputError("log-priors must be finite")
        total = sum(np.exp(c.log_prior) for c in self.classes)
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"priors must sum to 1, got {total}")

    @property
    def variant(self) -> str:
        return self.classes[0].model.kind


def classify_image(bundle: ClassifierBundle, obs: SymbolLattice):
    """Argmax over classes of log-prior + evaluate(model, obs).

    The bundle's models share variant, M and d, so their signature fields of
    obs differ only by window radius: obs is swept once per distinct w_e and
    each class is evaluated on its radius's field. Returns (label, scores)
    with one unnormalized log-posterior per class, in declaration order;
    ties go to the first-declared class.
    """
    evaluate = evaluate_discrete if bundle.variant == "discrete" else evaluate_real
    fields = {}
    for c in bundle.classes:
        if c.model.w_e not in fields:
            fields[c.model.w_e] = core.evaluation_field(c.model, obs)
    scores = [c.log_prior + evaluate(c.model, obs, signatures=fields[c.model.w_e]) for c in bundle.classes]
    return bundle.classes[int(np.argmax(scores))].label, scores


def softmax_scores(scores) -> np.ndarray:
    """Display-only normalization of per-class log-posteriors."""
    s = np.asarray(scores, dtype=np.float64)
    s = s - s.max()
    e = np.exp(s)
    return e / e.sum()
