import pytest

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


def test_cut_tail_identity_case():
    res = decomp.cut_tail((5, 4, 3, 2, 1), [5], 5)
    assert res.moves == 0
    assert verify_certificate(res.certificate)[0]


def test_cut_tail_moves_and_trace():
    mu = (9, 9, 8, 8, 8, 6, 4)
    res = decomp.cut_tail(mu, [5, 5, 5, 4], 9)
    assert verify_certificate(res.certificate)[0]
    assert res.trace[0] == mu
    assert res.trace[-1] == res.mu_hat
    for a, b in zip(res.trace, res.trace[1:]):
        assert pt.is_single_step(a, b)
    assert res.structured_moves <= res.bound


def test_cut_tail_validates_targets():
    with pytest.raises(ValueError):
        decomp.cut_tail((5, 4, 3, 2, 1), [5, 2], 5)


def test_fourth_power_pipeline_easy():
    nu = pt.staircase(10)  # 55 boxes, comparable outright
    out = decomp.fourth_power_pipeline(nu)
    assert out["n"] == 55
    assert verify_certificate(out["certificate"])[0]
    assert out["d"] == pt.blockwise_distance(out["nu_hat"], nu)
    assert out["ratio"] == pytest.approx(out["d"] / (2 * 55) ** 0.5)


@pytest.mark.parametrize("i", [34, 45])
def test_fourth_power_pipeline_passes_attempt_nodes_to_every_attempt(monkeypatch, i):
    # with no nodes, uniform draws 34 and 45 at n = 210 fail the first
    # attempt, take the conjugate branch of `_near_square` and then its
    # head recursion; both recursive calls used to run the prover on the
    # default budget of 30,000 nodes
    budgets = []
    prove = decomp.prove_in_staircase_square

    def spy(m, nu, budget=None, **kw):
        if budget is not None:  # cut_tail's calls pass no budget
            budgets.append(budget.nodes)
        return prove(m, nu, budget=budget, **kw)

    monkeypatch.setattr(decomp, "prove_in_staircase_square", spy)
    nu = samplers.draw("uniform", 210, 20260826, i)
    out = decomp.fourth_power_pipeline(nu, attempt_nodes=0)
    assert verify_certificate(out["certificate"])[0]
    assert budgets == [0, 0, 0]


def test_fourth_power_pipeline_forced_decomposition():
    # nu is dominance-comparable to rho_10, so even with attempt_nodes=0
    # the first prover call returns a dominance leaf and d = 0: the budget
    # does not bound the leaf checks, and the structural path is not taken
    nu = pt.conjugate((20,) + (5,) * 7)
    out = decomp.fourth_power_pipeline(nu, attempt_nodes=0)
    assert verify_certificate(out["certificate"])[0]
    trace = out["trace"]
    if trace:
        assert trace[0] == out["nu_hat"]
        assert trace[-1] == out["nu"]
        for a, b in zip(trace, trace[1:]):
            assert pt.is_single_step(a, b)
