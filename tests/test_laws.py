import pytest

from sympconn.errors import PreconditionError
from sympconn.laws import LAWS, run_law

SEEDS = range(5)


@pytest.mark.parametrize("law_id", sorted(LAWS))
def test_registered_laws_pass(law_id):
    report = run_law(law_id, SEEDS)
    assert report["pass"], report


def test_unknown_law_rejected():
    with pytest.raises(PreconditionError, match="unknown law"):
        run_law("L99", SEEDS)


def test_a_generator_of_seeds_is_counted_once():
    """The seeds are read once: a one-shot iterable reports how many ran."""
    assert run_law("L2", (s for s in range(3))) == {"law": "L2", "pass": True, "seeds": 3}


def test_failure_reports_minimal_seed():
    """A deliberately failing pseudo-law must surface the smallest seed."""
    from sympconn import laws

    def bad_law(seed):
        return {"boom": seed} if seed >= 3 else None

    laws.LAWS["Lbad"] = bad_law
    try:
        report = run_law("Lbad", [7, 3, 5, 1])
        assert report["pass"] is False
        assert report["seed"] == 3
    finally:
        del laws.LAWS["Lbad"]


def _l7_with_witness(monkeypatch, move):
    """Run L7 with the search's witness W replaced by move(W)."""
    from sympconn import laws

    search = laws.equivalence_semidecide

    def patched(query):
        verdict = search(query)
        verdict.witness = move(verdict.witness)
        return verdict

    monkeypatch.setattr(laws, "equivalence_semidecide", patched)
    return run_law("L7", SEEDS)


def test_l7_rejects_a_witness_that_does_not_carry_a(monkeypatch):
    """W S moves a to W (S a), and S a != a: the omega rotation S fixes no
    nonzero vector, so it moves every rank-one cube omega(., v)^3."""
    from sympconn.fourier import SymplecticData
    from sympconn.moduli import sp_generators

    s = sp_generators(SymplecticData.standard(4))[0]

    def times_s(w):
        return tuple(
            tuple(sum(w[i][k] * s[k][j] for k in range(4)) for j in range(4)) for i in range(4)
        )

    report = _l7_with_witness(monkeypatch, times_s)
    assert report["pass"] is False
    assert report["witness"]["fail"] == "witness does not carry a to the planted curve"


def test_l7_rejects_a_witness_longer_than_the_bound(monkeypatch):
    from sympconn import laws

    monkeypatch.setattr(laws, "_words_up_to", lambda gens, dim, bound: {})
    report = _l7_with_witness(monkeypatch, lambda w: w)
    assert report["pass"] is False
    assert report["witness"]["fail"] == "witness is not a word of length <= 2"
