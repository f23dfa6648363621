import hypothesis
import pytest

hypothesis.settings.register_profile("suite", max_examples=50, deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def accepted_points(monkeypatch):
    """(tau, (lam, x...)) of every correction the homotopy solver accepts.

    Wraps teneig.homotopy.newton_correct, which returns only the corrections
    it accepts: the start at tau = 0, the path steps, then the endgame jump
    to tau = 1.
    """
    from teneig import homotopy

    points = []
    real = homotopy.newton_correct

    def recorded(T, S, tau, u0, tol, cap, state=None):
        u, iters, g = real(T, S, tau, u0, tol, cap, state)
        points.append((tau, u))
        return u, iters, g

    monkeypatch.setattr(homotopy, "newton_correct", recorded)
    return points
