import hashlib

import pytest

from kronwork import cli
from kronwork import decomp
from kronwork import partitions as pt
from kronwork import prover
from kronwork import samplers
from kronwork.verify import verify_certificate


def test_stairgrid_replays_small():
    for n in range(1, 30):
        for k in range(2, 6):
            d = decomp.stairgrid(n, k)
            assert decomp.replay(d.recipe) == pt.staircase(n), (n, k)


def test_layer_decomposition_replays_and_counts_flakes():
    for m in (5, 9, 20, 31):
        for k in range(2, 7):
            for i in range(1, k):
                d = decomp.layer_decomposition(m, k, i)
                assert d.replay() == pt.staircase(m)
                assert len(d.flakes) == k * k - i * i


def test_layer_decomposition_validates_arguments():
    with pytest.raises(ValueError):
        decomp.layer_decomposition(5, 1, 1)
    with pytest.raises(ValueError):
        decomp.layer_decomposition(5, 3, 3)
    with pytest.raises(ValueError):
        decomp.layer_decomposition(5, 4, 3, smooth=True)


def test_smooth_layer_example_and_counterexample():
    d = decomp.layer_decomposition(20, 4, 2, smooth=True)
    assert max(d.flakes) - min(d.flakes) <= 1
    assert d.replay() == pt.staircase(20)
    # not every target is smoothable; this one fails on every route
    with pytest.raises(decomp.SmoothingError):
        decomp.layer_decomposition(10, 4, 1, smooth=True)


def test_caret_identity_replays():
    for k in range(1, 12):
        assert decomp.caret_decompose(k).replay() == pt.caret(k)


def _dealt_staircases(measure):
    for m in (6, 8, 20):
        cert = prover.deal_grid(m, pt.conjugate(pt.staircase(m)), prover.DEALINGS[measure])
        assert cert.goal == (pt.staircase(m),) * 3
        assert verify_certificate(cert)[0]


def test_uniform_split_on_easy_shapes():
    _dealt_staircases("uniform")


def test_plancherel_split_on_easy_shapes():
    _dealt_staircases("plancherel")


def test_split_failure_is_reported_not_raised():
    # a single huge column cannot fill four balanced pieces
    for deal in prover.DEALINGS.values():
        assert prover.deal_grid(6, (pt.triangular(6),), deal) is None


def test_fourth_power_pipeline_easy():
    nu = pt.staircase(10)  # 55 boxes, comparable outright
    out = decomp.fourth_power_pipeline(nu)
    assert out["n"] == 55
    assert verify_certificate(out["certificate"])[0]
    assert out["d"] == pt.blockwise_distance(out["nu_hat"], nu)
    assert out["ratio"] == pytest.approx(out["d"] / (2 * 55) ** 0.5)


def test_fourth_power_pipeline_forced_decomposition():
    # nu is dominance-comparable to rho_10, so the pipeline's one prover
    # call returns a dominance leaf and d = 0: no structural path is needed
    nu = pt.conjugate((20,) + (5,) * 7)
    out = decomp.fourth_power_pipeline(nu)
    assert verify_certificate(out["certificate"])[0]
    assert out["certificate"].kind == "DominanceStaircase"
    assert out["nu_hat"] == nu and out["d"] == 0
    trace = out["trace"]
    if trace:
        assert trace[0] == out["nu_hat"]
        assert trace[-1] == out["nu"]
        for a, b in zip(trace, trace[1:]):
            assert pt.is_single_step(a, b)


def test_fourth_power_pipeline_fails_closed_with_a_reason(monkeypatch, capsys):
    monkeypatch.setattr(decomp, "prove_in_staircase_square",
                        lambda m, nu, budget=None: None)
    with pytest.raises(ValueError) as err:
        decomp.fourth_power_pipeline(pt.staircase(10))
    msg = str(err.value)
    assert "nu_hat=10,9,8,7,6,5,4,3,2,1" in msg
    assert "rho_10" in msg and "30000 nodes" in msg
    argv = ["experiment", "--kind", "fourth-power", "--n", "55", "--seed", "1"]
    assert cli.dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: no certificate for nu_hat=")


@pytest.mark.parametrize("measure, digest", [
    ("plancherel", "a5ec362ff50b7378aa77c4717a38374e1f32ff335e6a2cb6e8f35207e9a2c851"),
    ("uniform", "81667c52a5f8d743e358ac581e67eaf3656d8ff5a35f99ba8e7365e90e48e859"),
])
def test_pipeline_corpus_certificates_are_pinned(measure, digest):
    h = hashlib.sha256()
    for n in (55, 105, 210):
        for i in range(50):
            nu = samplers.draw(measure, n, 20260826, i)
            cert = decomp.fourth_power_pipeline(nu)["certificate"]
            h.update((cert.to_json() + "\n").encode())
    assert h.hexdigest() == digest


def test_pipeline_moves_at_most_the_leftover():
    # n = m(m+1)/2 + k: only the spin-off of k columns separates nu_hat
    # from nu, so d <= k for every nu, here every nu of n <= 30
    for n in range(1, 31):
        m, k = pt.staircase_fit(n)
        xi = pt.irregular_staircase(n)
        for nu in pt.partitions_of(n):
            out = decomp.fourth_power_pipeline(nu)
            assert out["certificate"].goal == (out["nu_hat"], xi, xi), nu
            assert out["d"] <= k, nu
