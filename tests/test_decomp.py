import pytest

from kronwork import decomp
from kronwork import partitions as pt
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


def test_split_targets_sum():
    for m in range(2, 40):
        t = decomp.split_targets(m)
        assert len(t) == 4
        assert sum(t) == 2 * m - 1
        assert sum(pt.triangular(x) for x in t) == pt.triangular(m)


def test_uniform_split_on_easy_shapes():
    for m in (6, 8, 20):
        res = decomp.uniform_split(pt.staircase(m), m)
        assert res.ok, res.statuses
        assert res.certificate.goal[1] == pt.staircase(m)
        assert verify_certificate(res.certificate)[0]


def test_plancherel_split_on_easy_shapes():
    for m in (6, 8, 20):
        res = decomp.plancherel_split(pt.staircase(m), m)
        assert res.ok, res.statuses
        assert verify_certificate(res.certificate)[0]


def test_split_failure_is_reported_not_raised():
    # a single huge column cannot fill four balanced parts
    nu = pt.conjugate((pt.triangular(6),))
    res = decomp.uniform_split(nu, 6)
    assert not res.ok
    assert res.certificate is None


def test_height_criterion():
    assert decomp.height_criterion(4, (2, 2, 2, 2, 2))
    assert decomp.height_criterion(4, (4, 3, 3))
    assert not decomp.height_criterion(4, (6, 2, 1, 1))


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


def test_move_budget_recursion():
    for m in (4, 10, 50, 200):
        b = decomp.move_budget(m)
        assert b.bound >= 0


def test_fourth_power_pipeline_easy():
    nu = pt.staircase(10)  # 55 boxes, comparable outright
    out = decomp.fourth_power_pipeline(nu)
    assert out["n"] == 55
    assert verify_certificate(out["certificate"])[0]
    assert out["d"] == pt.blockwise_distance(out["nu_hat"], nu)
    assert out["ratio"] == pytest.approx(out["d"] / (2 * 55) ** 0.5)


@pytest.mark.parametrize("i", [6, 27])
def test_fourth_power_pipeline_passes_attempt_nodes_to_every_attempt(monkeypatch, i):
    # Plancherel draw 6 at n = 210 takes the conjugate branch of
    # `_near_square` and draw 27 its head recursion; both recursive calls
    # used to run the prover on the default budget of 30,000 nodes
    budgets = []
    prove = decomp.prove_in_staircase_square

    def spy(m, nu, budget=None, **kw):
        if budget is not None:  # cut_tail's calls pass no budget
            budgets.append(budget.nodes)
        return prove(m, nu, budget=budget, **kw)

    monkeypatch.setattr(decomp, "prove_in_staircase_square", spy)
    nu = samplers.draw("plancherel", 210, 20260826, i)
    out = decomp.fourth_power_pipeline(nu, attempt_nodes=1000)
    assert verify_certificate(out["certificate"])[0]
    assert len(budgets) >= 2 and set(budgets) == {1000}


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
