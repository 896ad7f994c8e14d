import numpy as np

from hpdicke import gaussian
from hpdicke.errors import InstabilityError
from hpdicke.gaussian import QuadraticForm, symplectic_diagonalize


def random_stable_form(rng: np.random.Generator, n_modes: int,
                       dscale: float = 0.1) -> QuadraticForm:
    """Random weakly coupled stable quadratic form; rejection-samples the
    rare unstable draws."""
    while True:
        a = np.diag(rng.uniform(0.9, 1.8, n_modes)).astype(complex)
        for i in range(n_modes):
            for j in range(i + 1, n_modes):
                c = rng.normal(scale=0.08) + 1j * rng.normal(scale=0.08)
                a[i, j] = c
                a[j, i] = np.conj(c)
        b = rng.normal(scale=0.06, size=(n_modes, n_modes)) \
            + 1j * rng.normal(scale=0.06, size=(n_modes, n_modes))
        b = 0.5 * (b + b.T)
        d = dscale * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes))
        form = QuadraticForm(A=a, B=b, d=d, e0=float(rng.normal()))
        try:
            symplectic_diagonalize(form)
        except InstabilityError:
            continue
        return form


def fail_krein_rows(monkeypatch, error: Exception, rows=None):
    """Make gaussian's stacked Krein step report error for the given rows
    it is handed, counted in order over all its calls (every row when
    rows is None), as a row-at-a-time step raising on those calls
    would; the other rows keep their own results."""
    krein = gaussian._krein_step
    seen = [0]

    def failing(ev, *args):
        modes, transform, errors = krein(ev, *args)
        for k in range(len(errors)):
            if rows is None or seen[0] + k in rows:
                errors[k] = error
        seen[0] += len(errors)
        return modes, transform, errors

    monkeypatch.setattr(gaussian, "_krein_step", failing)

