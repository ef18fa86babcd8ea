import math

import numpy as np
import pytest

from lvlm import (
    ClassEntry,
    ClassifierBundle,
    DiscreteModel,
    InputError,
    RealModel,
    SymbolLattice,
    classify_image,
    evaluate_discrete,
    evaluate_real,
    softmax_scores,
)
from lvlm import lattice

B_A = np.array([[0.8, 0.2], [0.2, 0.8]])
B_B = np.array([[0.6, 0.4], [0.4, 0.6]])
A2 = np.array([[0.95, 0.05], [0.05, 0.95]])


def model(B):
    return DiscreteModel(N=2, M=2, d=2, A=A2, B=B, w=1, w_e=1, w_l=1)


def obs(seed=0):
    rng = np.random.default_rng(seed)
    return SymbolLattice.discrete(rng.integers(0, 2, (8, 8)), M=2)


def test_single_class_always_wins():
    bundle = ClassifierBundle((ClassEntry("only", model(B_A), 0.0),))
    label, scores = classify_image(bundle, obs())
    assert label == "only" and len(scores) == 1


def test_identical_models_prior_argmax():
    bundle = ClassifierBundle((
        ClassEntry("big", model(B_A), math.log(0.9)),
        ClassEntry("small", model(B_A), math.log(0.1)),
    ))
    label, scores = classify_image(bundle, obs(1))
    assert label == "big"
    assert scores[0] - scores[1] == pytest.approx(math.log(0.9) - math.log(0.1))


def test_tie_goes_to_first_declared():
    bundle = ClassifierBundle((
        ClassEntry("first", model(B_A), math.log(0.5)),
        ClassEntry("second", model(B_A), math.log(0.5)),
    ))
    label, _ = classify_image(bundle, obs(2))
    assert label == "first"


def test_scores_are_prior_plus_evaluation():
    o = obs(3)
    bundle = ClassifierBundle((
        ClassEntry("a", model(B_A), math.log(0.3)),
        ClassEntry("b", model(B_B), math.log(0.7)),
    ))
    _, scores = classify_image(bundle, o)
    assert scores[0] == pytest.approx(math.log(0.3) + evaluate_discrete(model(B_A), o))
    assert scores[1] == pytest.approx(math.log(0.7) + evaluate_discrete(model(B_B), o))


def test_constant_prior_shift_keeps_argmax():
    o = obs(4)
    bundle = ClassifierBundle((
        ClassEntry("a", model(B_A), math.log(0.5)),
        ClassEntry("b", model(B_B), math.log(0.5)),
    ))
    label, scores = classify_image(bundle, o)
    shifted = [s + 12.5 for s in scores]
    assert ["a", "b"][int(np.argmax(shifted))] == label


def test_priors_must_sum_to_one():
    with pytest.raises(InputError):
        ClassifierBundle((
            ClassEntry("a", model(B_A), math.log(0.5)),
            ClassEntry("b", model(B_B), math.log(0.2)),
        ))


def test_variant_mix_rejected():
    rm = RealModel(N=1, M=2, d=2, A=np.ones((1, 1)), mu=np.zeros((1, 2)), sigma=np.eye(2)[None])
    with pytest.raises(InputError):
        ClassifierBundle((ClassEntry("a", model(B_A), math.log(0.5)),
                          ClassEntry("b", rm, math.log(0.5))))


def test_lattice_dimension_mismatch_raises():
    bundle = ClassifierBundle((ClassEntry("a", model(B_A), 0.0),))
    with pytest.raises(InputError):
        classify_image(bundle, SymbolLattice.discrete(np.array([0, 1, 1]), M=2))


def test_softmax_display_normalization():
    p = softmax_scores([0.0, math.log(3)])
    assert p == pytest.approx([0.25, 0.75])


def _mixed_bundle(models):
    return ClassifierBundle(tuple(ClassEntry(f"c{i}", m, math.log(1 / len(models))) for i, m in enumerate(models)))


def _discrete_models(w_es):
    rng = np.random.default_rng(5)
    return [DiscreteModel(N=3, M=3, d=2, A=rng.random((3, 3)), B=rng.dirichlet(np.ones(3), size=3),
                          w=1, w_e=w_e, w_l=1) for w_e in w_es]


@pytest.mark.parametrize("w_es", [(1, 1, 1, 1), (0, 2, 2, 0, 3)])
def test_scores_bit_equal_to_per_class_evaluation(w_es):
    models = _discrete_models(w_es)
    o = SymbolLattice.discrete(np.random.default_rng(6).integers(0, 3, (9, 11)), M=3)
    bundle = _mixed_bundle(models)
    _, scores = classify_image(bundle, o)
    assert scores == [c.log_prior + evaluate_discrete(c.model, o) for c in bundle.classes]


def test_real_scores_bit_equal_to_per_class_evaluation():
    rng = np.random.default_rng(7)
    models = [RealModel(N=2, M=2, d=3, A=np.full((2, 2), 0.5), mu=rng.normal(size=(2, 2)),
                        sigma=np.tile(np.eye(2), (2, 1, 1)), w_e=w_e) for w_e in (1, 0, 1)]
    o = SymbolLattice.real(rng.normal(size=(4, 5, 3, 2)))
    bundle = _mixed_bundle(models)
    _, scores = classify_image(bundle, o)
    assert scores == [c.log_prior + evaluate_real(c.model, o) for c in bundle.classes]


@pytest.mark.parametrize("w_es,sweeps", [((2, 2, 2, 2), [2]), ((0, 2, 2, 0, 3), [0, 2, 3])])
def test_image_swept_once_per_distinct_radius(monkeypatch, w_es, sweeps):
    calls = []
    sweep = lattice.sweep_signatures
    monkeypatch.setattr(lattice, "sweep_signatures", lambda lat, w: calls.append(w) or sweep(lat, w))
    classify_image(_mixed_bundle(_discrete_models(w_es)), obs())
    assert calls == sweeps
