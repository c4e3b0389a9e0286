"""Value semantics of the package's data types, and what importing the CLI costs.

The types are plain classes over ``errors.Value``; these tests pin what they
kept from the frozen dataclasses they replaced: construction by position or
keyword with the same defaults, equality and hashing by field, the repr
format, immutability, and every constructor check.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conitop import (
    DistinctnessCertificate,
    FourManifold,
    IntersectionForm,
    InvariantSystem,
    IsomorphismWitness,
    RankTwoBundle,
    TransitionResult,
    ValidationError,
    conifold_transition,
    standard,
    trivial_bundle,
)
from conitop.equiv import SearchStats

SRC = Path(__file__).resolve().parents[1] / "src"

HYPERBOLIC = ((0, 1), (1, 0))
CP2 = standard("CP2")
S4 = standard("S4")
SYSTEM_ARGS = (2, (((0, 0, 1), 1),), (0, 4), (0, 1), 0, (2, 1))
SYSTEM_KWARGS = dict(rank=2, mu=(((0, 0, 1), 1),), p1=(0, 4), w2=(0, 1), b3=0, c1_class=(2, 1))
SIDES = conifold_transition(S4, trivial_bundle(S4))
TRANSITION_ARGS = (SIDES.z1, SIDES.z2, SIDES.e1, SIDES.e2, S4, trivial_bundle(S4))

# (class, positional args, the same as keywords, another value, repr of the first)
CASES = [
    (
        IntersectionForm,
        (HYPERBOLIC,),
        dict(matrix=HYPERBOLIC),
        IntersectionForm(((0, 1), (1, 2))),
        "IntersectionForm(matrix=((0, 1), (1, 0)))",
    ),
    (
        FourManifold,
        ("X", IntersectionForm(HYPERBOLIC), (0, 0), (2, 2)),
        dict(label="X", form=IntersectionForm(HYPERBOLIC), w2=(0, 0), c1_tangent=(2, 2)),
        FourManifold("X", IntersectionForm(HYPERBOLIC), (0, 0), (2, 2), False),
        "FourManifold(label='X', form=IntersectionForm(matrix=((0, 1), (1, 0))), w2=(0, 0), "
        "c1_tangent=(2, 2), simply_connected=True)",
    ),
    (
        RankTwoBundle,
        (CP2, (1,), -1),
        dict(base=CP2, c1=(1,), c2=-1),
        RankTwoBundle(CP2, (1,), 0),
        "RankTwoBundle(base=FourManifold(label='CP2', form=IntersectionForm(matrix=((1,),)), "
        "w2=(1,), c1_tangent=(3,), simply_connected=True), c1=(1,), c2=-1)",
    ),
    (
        InvariantSystem,
        SYSTEM_ARGS,
        SYSTEM_KWARGS,
        InvariantSystem(*SYSTEM_ARGS, classifiable=False),
        "InvariantSystem(rank=2, mu=(((0, 0, 1), 1),), p1=(0, 4), w2=(0, 1), b3=0, "
        "c1_class=(2, 1), basis_labels=('e1', 'e2'), classifiable=True)",
    ),
    (
        IsomorphismWitness,
        (HYPERBOLIC,),
        dict(matrix=HYPERBOLIC),
        IsomorphismWitness(HYPERBOLIC, True),
        "IsomorphismWitness(matrix=((0, 1), (1, 0)), preserves_c1=False)",
    ),
    (
        DistinctnessCertificate,
        ("b3", None, (0, 2)),
        dict(kind="b3", prime=None, detail=(0, 2)),
        DistinctnessCertificate("b3", None, (0, 3)),
        "DistinctnessCertificate(kind='b3', prime=None, detail=(0, 2))",
    ),
    (
        TransitionResult,
        TRANSITION_ARGS,
        dict(zip(("z1", "z2", "e1", "e2", "base", "bundle"), TRANSITION_ARGS)),
        TransitionResult(*TRANSITION_ARGS, swapped=True),
        None,  # built from the reprs of its fields below
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_construction_equality_and_hash_by_field(cls, args, kwargs, other, text):
    value = cls(*args)
    assert value == cls(**kwargs) and not value != cls(**kwargs)
    assert hash(value) == hash(cls(**kwargs))
    assert value != other and other == other
    assert {value, cls(*args), other} == {value, other}
    for name, given in kwargs.items():
        assert getattr(value, name) == given


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_another_class_with_equal_values_is_unequal(cls, args, kwargs, other, text):
    twin = type("Twin", (cls,), {})
    value, copy = cls(*args), twin(*args)
    assert value != copy and copy != value
    assert not value == copy
    assert value != args


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_repr_keeps_the_dataclass_format(cls, args, kwargs, other, text):
    value = cls(*args)
    if text is None:
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in kwargs)
        text = f"TransitionResult({fields}, swapped=False)"
        assert text.startswith("TransitionResult(z1=InvariantSystem(rank=2, mu=(((0, 0, 1), -1),")
        assert text.endswith(", c1=(), c2=0), swapped=False)")
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, kwargs, other, text):
    value = cls(*args)
    for name in kwargs:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=name):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=name):
            delattr(value, name)
        assert getattr(value, name) == before
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*args)


def test_defaults():
    n = FourManifold("X", IntersectionForm(HYPERBOLIC), (0, 0))
    assert n.c1_tangent is None and n.simply_connected is True
    s = InvariantSystem(2, (), (0, 0), (0, 0), 0)
    assert s.c1_class is None and s.classifiable is True
    assert s.basis_labels == ("e1", "e2")
    assert IsomorphismWitness(HYPERBOLIC).preserves_c1 is False
    assert TransitionResult(*TRANSITION_ARGS).swapped is False
    assert SearchStats() == SearchStats(0, 0, 0, 0, 0)


def test_constructors_still_validate():
    with pytest.raises(ValidationError, match="square"):
        IntersectionForm(((1, 0),))
    with pytest.raises(ValidationError, match="symmetric"):
        IntersectionForm(((0, 1), (2, 0)))
    with pytest.raises(ValidationError, match="integer"):
        IntersectionForm(((1.0,),))
    form = IntersectionForm(HYPERBOLIC)
    with pytest.raises(ValidationError, match="unimodular"):
        FourManifold("X", IntersectionForm(((2,),)), (0,))
    with pytest.raises(ValidationError, match="characteristic"):
        FourManifold("X", form, (1, 0))
    with pytest.raises(ValidationError, match="length"):
        FourManifold("X", form, (0, 0), (2,))
    with pytest.raises(ValidationError, match="lift"):
        FourManifold("X", form, (0, 0), (2, 1))
    with pytest.raises(ValidationError, match="c2"):
        RankTwoBundle(CP2, (1,), 0.5)
    with pytest.raises(ValidationError, match="length"):
        RankTwoBundle(CP2, (1, 0), 0)
    with pytest.raises(ValidationError, match="c1"):
        RankTwoBundle(CP2, (True,), 0)
    bad_systems = [
        ((2, (((0, 1, 0), 1),), (0, 0), (0, 0), 0), "sorted"),
        ((2, (((0, 0, 1), 1), ((0, 0, 1), 1)), (0, 0), (0, 0), 0), "duplicated"),
        ((2, (((0, 0, 1), 0),), (0, 0), (0, 0), 0), "nonzero"),
        ((2, (((0, 0), 1),), (0, 0), (0, 0), 0), "three integers"),
        ((2, (), (0,), (0, 0), 0), "length"),
        ((2, (), (0, 0), (0, 2), 0), "0 or 1"),
        ((2, (), (0, 0), (0, 0), -1), "b3"),
        ((2, (), (0, 0), (0, 1), 0, (0, 0)), "lift"),
        ((2, (), (0.0, 0), (0, 0), 0), "p1"),
    ]
    for args, message in bad_systems:
        with pytest.raises(ValidationError, match=message):
            InvariantSystem(*args)
    with pytest.raises(ValidationError, match="determinant"):
        IsomorphismWitness(((2, 0), (0, 1)))
    with pytest.raises(ValidationError, match="witness matrix"):
        IsomorphismWitness(((1.0,),))


def test_invariant_system_rejects_non_integer_b3():
    # b3=0.5 was stored, and b3="1" raised a raw TypeError from the b3 < 0 check
    for b3 in (0.5, "1", True):
        with pytest.raises(ValidationError, match="^b3 .* is not an integer"):
            InvariantSystem(1, (), (0,), (0,), b3)


def test_invariant_system_rejects_non_integer_rank():
    # rank=True was stored as the rank of a one-element basis
    for rank in (True, 1.0):
        with pytest.raises(ValidationError, match="^rank .* is not an integer"):
            InvariantSystem(rank, (), (0,), (0,), 0, None, ("a",))


def test_witness_preserves_c1_must_be_a_bool():
    # preserves_c1="no" was stored as given
    for flag in ("no", 1, None):
        with pytest.raises(ValidationError, match="preserves_c1"):
            IsomorphismWitness(HYPERBOLIC, flag)
    assert IsomorphismWitness(HYPERBOLIC, True).preserves_c1 is True


def test_mu_terms_is_cached_on_the_instance():
    s = InvariantSystem(*SYSTEM_ARGS)
    terms = s.mu_terms
    assert terms == {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}
    assert s.mu_terms is terms
    assert s.mu_value(1, 0, 0) == 1
    # the cache is not a field: it changes neither equality nor the hash
    assert s == InvariantSystem(*SYSTEM_ARGS)
    assert hash(s) == hash(InvariantSystem(*SYSTEM_ARGS))


def test_search_stats_is_a_mutable_counter():
    stats = SearchStats(nodes=3)
    assert stats == SearchStats(3, 0, 0, 0, 0)
    stats.nodes += 1
    stats.pruned_mod2 = 2
    assert stats == SearchStats(nodes=4, pruned_mod2=2)
    assert stats != SearchStats(nodes=4)
    assert repr(stats) == (
        "SearchStats(nodes=4, column_tests=0, pruned_table=0, pruned_mod2=2, pruned_triple=0)"
    )
    with pytest.raises(TypeError):
        hash(stats)


def _imported_modules(code: str) -> set[str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


def test_cli_start_up_loads_no_heavy_standard_modules():
    # dataclasses brings inspect, ast, dis and tokenize, and fractions brings
    # decimal: together about 25 ms of every command's start-up
    loaded = _imported_modules("import conitop.cli") - _imported_modules("pass")
    assert "conitop.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}
