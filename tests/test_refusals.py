"""Library input checks that no other test calls with bad input: each bad
call raises exactly ValueError with exactly its message."""

import pytest

from balleans.ballean import (
    FiniteSubset,
    ZWindow,
    ball_iterate,
    bounded_ballean,
    coproduct_ballean,
    exp_ball_membership,
    product_ballean,
)
from balleans.groups import (
    ZERO,
    AsdimReport,
    CardinalToken,
    FiniteAbelianGroup,
    GroupDescriptor,
    PruferSubgroup,
    ReducedTorsionPart,
    component_census,
)
from balleans.lattices import full_lattice, lattice_from_generators, member
from balleans.witnesses import (
    PrimeTuple,
    TaxiPoint,
    dlog_closed_form,
    elementary_abelian_correspondence,
    hamming_embed,
    iota,
    lz_exp_ball_general,
    lz_log_ball,
    prufer_ball,
)

REFUSALS = {
    # ballean
    "ball_iterate": (lambda: ball_iterate(bounded_ballean(range(2), ["r"]), 0, "r", -1),
                     "iteration count must be >= 0"),
    "product_ballean": (lambda: product_ballean([]), "product of an empty list"),
    "coproduct_ballean": (lambda: coproduct_ballean([]), "coproduct of an empty list"),
    "ZWindow.normalize": (lambda: ZWindow(3).normalize(1.5),
                          "window elements must be integers"),
    "exp_ball_membership": (lambda: exp_ball_membership(
        FiniteSubset.of(FiniteAbelianGroup((4,)), [0]),
        FiniteSubset.of(FiniteAbelianGroup((6,)), [0]), [1]),
        "subsets of different parents"),
    # groups
    "FiniteAbelianGroup.from_orders": (lambda: FiniteAbelianGroup.from_orders([0, 4]),
                                       "cyclic orders must be >= 1"),
    "FiniteAbelianGroup.normalize": (lambda: FiniteAbelianGroup((2, 4)).normalize(3),
                                     "bare integers only valid in cyclic groups"),
    "PruferSubgroup": (lambda: PruferSubgroup(2, -1), "level must be >= 0"),
    "CardinalToken-kind": (lambda: CardinalToken("aleph"), "bad cardinal kind"),
    "CardinalToken-power": (lambda: CardinalToken("power"), "power cardinal needs a base"),
    "CardinalToken.from_json": (lambda: CardinalToken.from_json("aleph"),
                                "bad cardinal token: 'aleph'"),
    "ReducedTorsionPart": (lambda: ReducedTorsionPart("cyclic"), "bad reduced torsion kind"),
    "GroupDescriptor": (lambda: GroupDescriptor(prufer=((2, ZERO),)),
                        "Pruefer multiplicities must be nonzero"),
    "AsdimReport-kind": (lambda: AsdimReport("big"), "bad asdim kind"),
    "AsdimReport-finite": (lambda: AsdimReport("finite"), "finite asdim needs n >= 0"),
    "component_census-Z^n": (lambda: component_census("Z^n", n=0),
                             "Z^n census needs n >= 1"),
    "component_census-prufer": (lambda: component_census("prufer", prime=4),
                                "prufer census needs a prime"),
    # lattices
    "lattice_from_generators": (lambda: lattice_from_generators(-1, []),
                                "ambient dimension must be >= 0"),
    "member": (lambda: member([1, 2], full_lattice(1)),
               "vector length does not match ambient dimension"),
    # witnesses
    "PrimeTuple": (lambda: PrimeTuple(()), "at least one prime required"),
    "TaxiPoint": (lambda: TaxiPoint((1, -1)), "coordinates must be >= 0"),
    "iota": (lambda: iota(PrimeTuple((2, 3)), TaxiPoint((1,))),
             "coordinate count does not match the prime tuple"),
    "dlog_closed_form": (lambda: dlog_closed_form(
        PrimeTuple((2, 3)), TaxiPoint((1, 2)), TaxiPoint((1,))),
        "coordinate count does not match the prime tuple"),
    "hamming_embed": (lambda: hamming_embed(2, TaxiPoint((1,))),
                      "coordinate count does not match the stream count"),
    "elementary_abelian_correspondence": (
        lambda: elementary_abelian_correspondence(2, [0, 3], [1], width=2),
        "index outside the working width"),
    "lz_exp_ball_general": (lambda: lz_exp_ball_general(0, [1]), "n must be >= 1"),
    "lz_log_ball": (lambda: lz_log_ball(0, 1), "n and the bound must be >= 1"),
    "prufer_ball-prime": (lambda: prufer_ball(4, 0, 1), "prime required"),
    "prufer_ball-level": (lambda: prufer_ball(2, -1, 1),
                          "level >= 0 and bound >= 1 required"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
