import hypothesis
import pytest

hypothesis.settings.register_profile("suite", max_examples=50, deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def accepted_points(monkeypatch):
    """(tau, (lam, x...)) of every correction the homotopy solver accepts.

    Wraps teneig.homotopy._step, which returns only accepted corrections:
    the path steps, then the endgame jump to tau = 1.
    """
    from teneig import homotopy

    points = []
    real = homotopy._step

    def recorded(T, S, state, dtau, tau_next, tol, cap):
        u, iters, g = real(T, S, state, dtau, tau_next, tol, cap)
        points.append((tau_next, u))
        return u, iters, g

    monkeypatch.setattr(homotopy, "_step", recorded)
    return points
