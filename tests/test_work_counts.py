"""Ceilings on the form work of one exact ``classify``.

Counters are patched onto ``InvariantForm.wedge``, ``exterior_d`` and
``lie.curvature_of`` while ``classify(family_a(1/2, 1/3))`` runs on an
algebra built beforehand.  The Chern curvature needs its full matrix, 27
wedges and 9 derivatives; the Bismut Ricci form needs only d(tr theta^b),
one more derivative.  A change that brings back the full Bismut curvature
or another redundant form product fails here without any timing.
"""

from collections import Counter
from fractions import Fraction

from btpgeo import forms, lie
from btpgeo.cli import main

CEILINGS = {"curvature_of": 1, "wedge": 27, "exterior_d": 10}


def _counter(calls):
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return counted


def test_classify_form_work_within_ceilings(monkeypatch):
    g = lie.family_a(Fraction(1, 2), Fraction(1, 3))
    calls = Counter()
    counted = _counter(calls)

    monkeypatch.setattr(forms.InvariantForm, "wedge",
                        counted("wedge", forms.InvariantForm.wedge))
    exterior_d = counted("exterior_d", forms.exterior_d)
    for module in (forms, lie):         # lie imports exterior_d by name
        monkeypatch.setattr(module, "exterior_d", exterior_d)
    monkeypatch.setattr(lie, "curvature_of", counted("curvature_of", lie.curvature_of))
    lie.classify(g)
    for name, ceiling in CEILINGS.items():
        assert calls[name] <= ceiling, calls


def test_companion_swaps_once(monkeypatch, capsys):
    calls = Counter()
    counted = _counter(calls)
    monkeypatch.setattr(lie, "conjugate_swap", counted("conjugate_swap", lie.conjugate_swap))
    monkeypatch.setattr(lie, "d_squared_residual",
                        counted("d_squared_residual", lie.d_squared_residual))
    assert main(["companion", "--example", "n3", "--swap", "2"]) == 0
    capsys.readouterr()
    assert calls == {"conjugate_swap": 1, "d_squared_residual": 2}
